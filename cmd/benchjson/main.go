// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document, one record per benchmark result.
// It is the emitter behind `make bench-json`, which snapshots the
// repository's performance trajectory into BENCH_<date>.json artifacts
// so hot-path regressions show up as diffs between dated files.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_2026-07-28.json
//
// All value/unit pairs are kept, including testing.B custom metrics
// (the figure benchmarks report J, kbps and pdr alongside ns/op). The
// host's CPU count and each result's GOMAXPROCS are recorded too, so a
// snapshot taken on one vCPU is not mistaken for a multi-core one.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name string `json:"name"`
	Pkg  string `json:"pkg"`
	// GOMAXPROCS is the -N suffix stripped from the benchmark name;
	// go test omits the suffix when it is 1.
	GOMAXPROCS int                `json:"gomaxprocs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	Date       string   `json:"date"`
	GoOS       string   `json:"goos,omitempty"`
	GoArch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NProc      int      `json:"nproc"` // runtime.NumCPU of the host that wrote the report
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output path (default stdout)")
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the report")
	flag.Parse()

	rep := Report{Date: *date, NProc: runtime.NumCPU()}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Echo so the tool can sit at the end of a pipe without hiding
		// the human-readable output.
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line, pkg); ok {
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(rep.Benchmarks), *out)
}

// parseBench decodes one "BenchmarkName-8  N  v unit  v unit..." line.
func parseBench(line, pkg string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	name, procs := f[0], 1
	// Strip the -GOMAXPROCS suffix so records compare across machines.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	r := Result{Name: name, Pkg: pkg, GOMAXPROCS: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
