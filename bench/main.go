// Command bench is the simulator's whole-run benchmark. It times whole
// simulations and a whole campaign through the public entry points
// (scenario.Build, Sched.Run, Network.Run, runner.Execute), one op per
// child process, checks every op's JSONL output, and splits CPU time by
// layer from a separately profiled child.
//
// From the repository root:
//
//	sh bench/run.sh                              # all workloads, report
//	sh bench/run.sh --out bench/results/X.json   # ... and keep it
//	sh bench/run.sh --workload paper-fig8 --seed 1 --seconds 20 --trace 0
//	sh bench/run.sh --update-golden
//
// With --workload it runs about --seconds' worth of that workload's ops
// and prints, as its last line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer ones (--trace 1). See README.md
// for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	if req := os.Getenv(childEnv); req != "" {
		childMain(req)
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "measure only this workload for --seconds and print the result line (default: all workloads, --reps each)")
	seed := fs.Int64("seed", 1, "benchmark seed; it expands to the scenario seeds of the workloads' instances")
	seconds := fs.Int("seconds", 10, "with --workload: about how long to run timed ops; it sets their count (see workload.opSeconds)")
	trace := fs.Int("trace", 0, "with --workload: 1 prints the per-layer metrics instead of the end-to-end ones")
	reps := fs.Int("reps", instances, "without --workload: timed ops per workload")
	out := fs.String("out", "", "without --workload: also write the report as JSON to this file")
	update := fs.Bool("update-golden", false, "rewrite bench/golden.json from one op per instance at --seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *update:
		return updateGolden(stdout, *seed)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "bench: need a known --workload, --seconds >= 1 and --trace 0|1\n")
			return 2
		}
		// A host much slower than the reference one makes fewer ops rather
		// than a run far longer than asked for. The traced child's ops
		// count toward the run's time.
		d := time.Duration(*seconds) * time.Second
		n := int(math.Round(d.Seconds() / w.opSeconds))
		if *trace == 1 {
			n -= tracedOps
		}
		s := newSet(w, *seed, 1, g, &speedProbe{})
		s.measure(max(1, n), time.Now().Add(d*6/5), *trace == 1)
		return printResultLine(stdout, s, *trace == 1)
	default:
		if *reps < 1 {
			fmt.Fprintln(os.Stderr, "bench: --reps must be at least 1")
			return 2
		}
		var sets []*set
		speed := &speedProbe{}
		for _, w := range workloads {
			sets = append(sets, newSet(w, *seed, 1, g, speed))
		}
		measureRoundRobin(sets, *reps)
		return report(stdout, sets, *seed, *reps, *out)
	}
}

// result is the single-workload mode's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printResultLine(stdout io.Writer, s *set, trace bool) int {
	fmt.Fprintf(stdout, "# %s seed=%d nproc=%d gomaxprocs=%d go=%s\n",
		s.w.name, s.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for i, r := range s.timed {
		fmt.Fprintf(stdout, "# op %d instance=%d wall_s=%.4f host_speed=%.4f setup_s=%.5f events=%d\n",
			i, r.Instance, r.WallS, r.Speed, r.SetupS, r.Events)
	}
	r := result{Attempted: s.attempted, Failed: s.failed, Metrics: map[string]value{}}
	r.Correct = s.failed == 0 && len(s.timed) > 0 && (!trace || s.traced != nil)
	if r.Correct {
		if trace {
			r.Metrics = s.perLayer()
		} else {
			for i, ms := range [][]metric{endToEnd, printedOnly} {
				sums := s.summaries(ms)
				for _, e := range ms {
					sum := sums[e.name]
					fmt.Fprintf(stdout, "%-22s %14.6g  q1 %-12.6g q3 %-12.6g n %-3d %s\n", e.name, sum.Median, sum.Q1, sum.Q3, sum.N, sum.Unit)
					if i == 0 {
						r.Metrics[e.name] = value{sum.Median, sum.Unit}
					}
				}
			}
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !r.Correct {
		return 1
	}
	return 0
}

// host records what the numbers were measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Date       string `json:"date"`
}

func hostFacts() host {
	b := obs.BuildInfo()
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         b.GoVersion,
		Revision:   b.Revision,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if h.Revision == "" {
		h.Revision = "unknown"
	}
	return h
}

type workloadReport struct {
	Name        string             `json:"name"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	EndToEnd    map[string]summary `json:"end_to_end"`
	PrintedOnly map[string]summary `json:"printed_only"`
	PerLayer    map[string]value   `json:"per_layer,omitempty"`
}

type fullReport struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	Workers   int              `json:"workers"`
	Workloads []workloadReport `json:"workloads"`
}

// report prints every workload's metrics, writes them to path if set,
// and fails if any op failed.
func report(stdout io.Writer, sets []*set, seed int64, reps int, path string) int {
	rep := fullReport{Host: hostFacts(), Seed: seed, Reps: reps, Workers: min(campaignWorkers, runtime.NumCPU())}
	h := rep.Host
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s date=%s\nseed=%d reps=%d campaign workers=%d\n\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Revision, h.Date, seed, reps, rep.Workers)
	code := 0
	for _, s := range sets {
		wr := workloadReport{Name: s.w.name, Attempted: s.attempted, Failed: s.failed,
			EndToEnd: s.summaries(endToEnd), PrintedOnly: s.summaries(printedOnly)}
		wr.FailedShare = float64(s.failed) / float64(max(s.attempted, 1))
		wr.Correct = s.failed == 0 && len(s.timed) > 0 && s.traced != nil
		if wr.Correct {
			wr.PerLayer = s.perLayer()
		} else {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, wr)

		fmt.Fprintf(stdout, "== %s (attempted %d, failed %d)\n", s.w.name, s.attempted, s.failed)
		fmt.Fprintf(stdout, "  %-22s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
		for _, e := range endToEnd {
			sum := wr.EndToEnd[e.name]
			fmt.Fprintf(stdout, "  %-22s %14.6g %14.6g %14.6g %4d  %s\n", e.name, sum.Median, sum.Q1, sum.Q3, sum.N, sum.Unit)
		}
		for _, e := range printedOnly {
			sum := wr.PrintedOnly[e.name]
			fmt.Fprintf(stdout, "  %-22s %14.6g %14.6g %14.6g %4d  %s\n", e.name, sum.Median, sum.Q1, sum.Q3, sum.N, sum.Unit)
		}
		fmt.Fprintf(stdout, "  %-22s %14.6g %14s %14s %4d  %s\n", "failed_share", wr.FailedShare, "", "", s.attempted, "ratio")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "per-layer (traced run of %d ops; timings from the timed ops)\n", tracedOps)
	fmt.Fprintf(stdout, "  %-28s", "metric")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(stdout, " %16s", wr.Name)
	}
	fmt.Fprintln(stdout, "  unit")
	for _, nu := range perLayerNames() {
		fmt.Fprintf(stdout, "  %-28s", nu[0])
		for _, wr := range rep.Workloads {
			fmt.Fprintf(stdout, " %16.6g", wr.PerLayer[nu[0]].Value)
		}
		fmt.Fprintf(stdout, "  %s\n", nu[1])
	}

	if path != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// updateGolden rewrites bench/golden.json (relative to the repository
// root, where the benchmark runs) from one fresh op per instance.
func updateGolden(stdout io.Writer, seed int64) int {
	g := golden{Seed: seed, Workloads: map[string][]goldenEntry{}}
	for _, w := range workloads {
		for i := 0; i < instances; i++ {
			res, _, err := spawn(opRequest{Workload: w.name, Seed: seed, Horizon: 1, Instance: i})
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			op := res.Ops[0]
			g.Workloads[w.name] = append(g.Workloads[w.name], goldenEntry{SHA256: op.Digest, Events: op.Events})
			fmt.Fprintf(stdout, "%-18s %d %s events=%d\n", w.name, i, op.Digest, op.Events)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile("bench/golden.json", append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}
