package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/aodv"
	"repro/internal/ctrl"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// childEnv carries an opRequest to a child process. The benchmark re-execs
// its own binary with it set, which also works for the test binary.
const childEnv = "PCMAC_BENCH_OP"

const (
	// instances is how many distinct inputs a seed expands to. Whole
	// runs of one scenario family differ by 10-30% in cost from seed to
	// seed, so a measurement that ran one input would mostly measure the
	// input; the median over many is what stays put across seeds. It
	// exceeds the ops a 20-s run makes, so every op adds an input.
	instances = 32
	// setupBuilds is how many scenario.Build calls a timed child makes
	// after its op to measure set-up time.
	setupBuilds = 3
	// tracedOps is how many ops the profiled child runs: enough for
	// about 1000 samples at the default 100 Hz.
	tracedOps = 6
)

// instanceSeed is the scenario seed (or campaign base seed) of one of a
// benchmark seed's instances.
func instanceSeed(seed int64, instance int) int64 {
	return runner.DeriveSeed(seed, fmt.Sprintf("bench/instance=%d", instance))
}

// opRequest is what the parent asks of one child process: one timed op
// on Instance, tracedOps profiled ones on instances 0, 1, ..., or, with
// Probe, one speed-probe reading.
type opRequest struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Horizon  float64 `json:"horizon"`
	Instance int     `json:"instance"`
	Traced   bool    `json:"traced"`
	Probe    bool    `json:"probe"`
}

// opStat is one op as measured inside the child.
type opStat struct {
	Instance int     `json:"instance"`
	WallS    float64 `json:"wall_s"`
	// RunS is the Sched.Run(horizon) call, ResultS the Network.Run that
	// follows it; both zero for the campaign.
	RunS    float64 `json:"run_s"`
	ResultS float64 `json:"result_s"`
	// EmitS is the time spent inside the JSONL writer's Write (Execute's
	// Out for the campaign). BusyS is the runner's summed per-run wall
	// time, zero for single runs.
	EmitS   float64 `json:"emit_s"`
	BusyS   float64 `json:"busy_s"`
	Workers int     `json:"workers"`

	Runs        int     `json:"runs"`
	Events      uint64  `json:"events"`
	PeakPending int     `json:"peak_pending"`
	AllocBytes  uint64  `json:"alloc_bytes"`
	GCCycles    uint32  `json:"gc_cycles"`
	GCCPUShare  float64 `json:"gc_cpu_share"`
	Digest      string  `json:"digest"`
	// The network-wide counters of a single run; the campaign's records
	// carry none of them, so they stay zero there.
	MAC     mac.Stats  `json:"mac"`
	Ctrl    ctrl.Stats `json:"ctrl"`
	Routing aodv.Stats `json:"routing"`
}

// childResult is a child's reply on its standard output.
type childResult struct {
	Ops []opStat `json:"ops"`
	// SetupS is the median of setupBuilds builds (timed children only).
	SetupS float64 `json:"setup_s"`
	// LayerNS and Samples come from the CPU profile (traced children
	// only).
	LayerNS map[string]int64 `json:"layer_ns,omitempty"`
	Samples int64            `json:"samples"`
	// ProbeS is a speed-probe reading (probe children only).
	ProbeS float64 `json:"probe_s,omitempty"`
}

// childMain serves one opRequest and exits; it reports errors on
// standard error and through the exit code.
func childMain(req string) {
	res, err := serveChild(req)
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func serveChild(raw string) (childResult, error) {
	var req opRequest
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		return childResult{}, fmt.Errorf("decode request: %w", err)
	}
	if req.Probe {
		return childResult{ProbeS: probeReading()}, nil
	}
	w, ok := workloadByName(req.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", req.Workload)
	}
	var res childResult
	if !req.Traced {
		st, err := runOp(w, req.Seed, req.Horizon, req.Instance, false)
		if err != nil {
			return res, err
		}
		res.Ops = []opStat{st}
		res.SetupS, err = timeSetup(w, instanceSeed(req.Seed, req.Instance), req.Horizon)
		return res, err
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return res, err
	}
	for i := 0; i < tracedOps; i++ {
		st, err := runOp(w, req.Seed, req.Horizon, i, true)
		if err != nil {
			pprof.StopCPUProfile()
			return res, err
		}
		res.Ops = append(res.Ops, st)
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return res, err
	}
	res.LayerNS, res.Samples = p.layerCPU(), p.samples
	return res, nil
}

// runOp runs one op and measures it. A traced op also collects the
// scheduler's peak pending depth, which ResultOf would otherwise add to
// the record; it is cleared before hashing so every op's digest covers
// the same bytes.
func runOp(w workload, seed int64, horizon float64, instance int, traced bool) (opStat, error) {
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gcBefore := readGCCPU()

	st := opStat{Instance: instance}
	var jsonl []byte
	var err error
	if s := instanceSeed(seed, instance); w.single != nil {
		jsonl, err = runSingle(w.single(s, horizon), traced, &st)
	} else {
		jsonl, err = runCampaign(w.campaign(s, horizon), &st)
	}
	if err == nil {
		st.Events, err = checkRecords(jsonl, st.Runs)
	}
	if err != nil {
		return st, fmt.Errorf("%s instance %d: %w", w.name, instance, err)
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	st.AllocBytes = after.TotalAlloc - before.TotalAlloc
	st.GCCycles = after.NumGC - before.NumGC
	runtime.GC() // settles the runtime/metrics CPU classes
	st.GCCPUShare = readGCCPU().shareSince(gcBefore)
	sum := sha256.Sum256(jsonl)
	st.Digest = hex.EncodeToString(sum[:])
	return st, nil
}

func runSingle(o scenario.Options, traced bool, st *opStat) ([]byte, error) {
	o.CollectSimStats = traced
	t0 := time.Now()
	nw, err := scenario.Build(o)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	nw.Sched.Run(sim.Time(nw.Opts.Duration))
	t2 := time.Now()
	res := nw.Run() // its own Sched.Run finds nothing left to do
	t3 := time.Now()
	st.WallS = t3.Sub(t0).Seconds()
	st.RunS = t2.Sub(t1).Seconds()
	st.ResultS = t3.Sub(t2).Seconds()
	st.Runs = 1
	st.PeakPending = res.PeakQueue
	st.MAC, st.Ctrl, st.Routing = res.MAC, res.Ctrl, res.Routing

	rec := runner.ResultOf(runner.SingleRun(o), res)
	rec.PeakQueue = 0
	out := &timedWriter{}
	if err := runner.WriteResult(out, rec); err != nil {
		return nil, err
	}
	st.EmitS = out.spent.Seconds()
	return out.buf.Bytes(), nil
}

func runCampaign(c runner.Campaign, st *opStat) ([]byte, error) {
	st.Workers = min(campaignWorkers, runtime.NumCPU())
	m := obs.NewRunnerMetrics(obs.NewRegistry())
	out := &timedWriter{}
	t0 := time.Now()
	sum, err := runner.Execute(context.Background(), c, runner.ExecOptions{Workers: st.Workers, Out: out, Obs: m})
	st.WallS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	st.Runs = sum.Total
	st.EmitS = out.spent.Seconds()
	st.BusyS = m.RunWallSeconds.Sum()
	return out.buf.Bytes(), nil
}

// timedWriter collects an op's JSONL and the time spent writing it.
type timedWriter struct {
	buf   bytes.Buffer
	spent time.Duration
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := w.buf.Write(p)
	w.spent += time.Since(t)
	return n, err
}

// checkRecords checks what can be checked of any op's output without a
// reference: one well-formed, successful record per run, each with
// events and a delivery ratio in [0, 1]. It returns the records' total
// events.
func checkRecords(jsonl []byte, runs int) (uint64, error) {
	recs, err := runner.LoadResults(bytes.NewReader(jsonl))
	if err != nil {
		return 0, err
	}
	if len(recs) != runs || !bytes.HasSuffix(jsonl, []byte("\n")) {
		return 0, fmt.Errorf("%d complete records for %d runs", len(recs), runs)
	}
	var events uint64
	for _, r := range recs {
		if r.Failed() || r.Events == 0 || r.PDR < 0 || r.PDR > 1 {
			return 0, fmt.Errorf("implausible record %s: status %q, %d events, pdr %g", r.Key, r.Status, r.Events, r.PDR)
		}
		events += r.Events
	}
	return events, nil
}

// timeSetup returns the median of setupBuilds scenario.Build calls, each
// from a collected heap. For the campaign one build is every run's
// network.
func timeSetup(w workload, seed int64, horizon float64) (float64, error) {
	var opts []scenario.Options
	if w.single != nil {
		opts = []scenario.Options{w.single(seed, horizon)}
	} else {
		runs, err := w.campaign(seed, horizon).Runs()
		if err != nil {
			return 0, err
		}
		for _, r := range runs {
			opts = append(opts, r.Opts)
		}
	}
	times := make([]float64, setupBuilds)
	for i := range times {
		runtime.GC()
		t := time.Now()
		for _, o := range opts {
			if _, err := scenario.Build(o); err != nil {
				return 0, err
			}
		}
		times[i] = time.Since(t).Seconds()
	}
	slices.Sort(times)
	return times[len(times)/2], nil
}

// gcCPU is a reading of the runtime's CPU-time classes.
type gcCPU struct{ gc, total, idle float64 }

var gcCPUSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readGCCPU() gcCPU {
	s := slices.Clone(gcCPUSamples)
	metrics.Read(s)
	return gcCPU{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// shareSince is the GC's share of the non-idle CPU time since b.
func (a gcCPU) shareSince(b gcCPU) float64 {
	busy := (a.total - a.idle) - (b.total - b.idle)
	if busy <= 0 {
		return 0
	}
	return (a.gc - b.gc) / busy
}
