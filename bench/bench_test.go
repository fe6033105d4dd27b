package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/scenario"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke test drives the real re-exec protocol.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		childMain(req)
	}
	os.Exit(m.Run())
}

// smokeHorizon runs every workload at 1/20 of its simulated duration.
const smokeHorizon = 0.05

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func benchmarkSpec(t *testing.T) (e2e, layer []metricSpec) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark has %v", names, have)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestSmoke runs every workload through child processes and checks that
// each result line carries every metric BENCHMARK.json names, with its
// unit.
func TestSmoke(t *testing.T) {
	e2e, layer := benchmarkSpec(t)
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s := newSet(w, 1, smokeHorizon, g, &speedProbe{})
			s.runTimed()
			s.runTimed()
			s.runTraced()
			if s.failed != 0 || s.attempted != 2+tracedOps {
				t.Fatalf("failed %d of %d ops", s.failed, s.attempted)
			}
			for trace, want := range [][]metricSpec{e2e, layer} {
				var out bytes.Buffer
				if code := printResultLine(&out, s, trace == 1); code != 0 {
					t.Fatalf("trace %d: exit %d\n%s", trace, code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r struct {
					Correct   bool
					Attempted int
					Metrics   map[string]value
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Attempted != s.attempted {
					t.Errorf("trace %d: correct %v attempted %d", trace, r.Correct, r.Attempted)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := r.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.Name, v, m.Unit)
					}
					// A time that reads the same on every run looks made up, so no
					// time metric may be a constant 0.
					if (trace == 0 || m.Unit == "s" || m.Unit == "ns") && !(v.Value > 0) {
						t.Errorf("trace %d: metric %s = %g, want > 0", trace, m.Name, v.Value)
					}
				}
				if trace == 1 {
					var sum float64
					for _, l := range layers {
						sum += r.Metrics[l+".self_share"].Value
					}
					if r.Metrics["trace.samples"].Value > 0 && math.Abs(sum-1) > 0.01 {
						t.Errorf("self shares sum to %g", sum)
					}
				}
			}
		})
	}
}

// TestSplitRunMatchesRun checks that timing the phases separately
// (Build, Sched.Run, Network.Run) yields the bytes scenario.Run does,
// with and without the traced op's depth tracking.
func TestSplitRunMatchesRun(t *testing.T) {
	for _, name := range []string{"paper-fig8", "scale500-mobile"} {
		w, _ := workloadByName(name)
		o := w.single(3, smokeHorizon)
		res, err := scenario.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := runner.WriteResult(&want, runner.ResultOf(runner.SingleRun(o), res)); err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			var st opStat
			got, err := runSingle(o, traced, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s traced=%v: split run differs from scenario.Run:\n%s\n%s", name, traced, got, want.Bytes())
			}
			if st.RunS <= 0 || st.RunS > st.WallS {
				t.Errorf("%s traced=%v: run_s %g of wall %g", name, traced, st.RunS, st.WallS)
			}
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, "s")
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = summarize([]float64{4, 1, 2}, "s")
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("got %+v", s)
	}
}
