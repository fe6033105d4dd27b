package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCounterConcurrent hammers one counter, one gauge and one
// histogram from many goroutines; under -race (how CI runs the suite)
// this doubles as the data-race proof for the atomic hot paths.
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("busy", "busy")
	h := r.Histogram("lat_seconds", "latency", []float64{0.5})

	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.25)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0 after balanced adds", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != 0.25*workers*per {
		t.Errorf("histogram sum = %v, want %v", got, 0.25*workers*per)
	}
}

// TestExpositionGolden pins the text exposition format byte for byte:
// family ordering, label rendering, histogram cumulation, float
// formatting. Scrapers and the CI greps depend on this exact shape.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs_total", "Total runs.")
	c.Add(42)
	v := r.GaugeVec("campaign_done", "Done runs per campaign.", "campaign")
	v.With("abc").Set(7)
	v.With("def").Set(2.5)
	h := r.Histogram("wall_seconds", "Wall time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)
	r.GaugeFunc("uptime_seconds", "Uptime.", func() float64 { return 12.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP campaign_done Done runs per campaign.
# TYPE campaign_done gauge
campaign_done{campaign="abc"} 7
campaign_done{campaign="def"} 2.5
# HELP runs_total Total runs.
# TYPE runs_total counter
runs_total 42
# HELP uptime_seconds Uptime.
# TYPE uptime_seconds gauge
uptime_seconds 12.5
# HELP wall_seconds Wall time.
# TYPE wall_seconds histogram
wall_seconds_bucket{le="0.1"} 1
wall_seconds_bucket{le="1"} 2
wall_seconds_bucket{le="+Inf"} 3
wall_seconds_sum 30.55
wall_seconds_count 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketEdges: observations exactly on a bound land in
// that bound's bucket (le = less-or-equal semantics).
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{`h_bucket{le="1"} 1`, `h_bucket{le="2"} 2`, `h_bucket{le="+Inf"} 3`} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

// TestLabelEscaping: backslashes, quotes and newlines in label values
// must be escaped per the exposition format.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("g", "weird labels", "k").With("a\"b\\c\nd").Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `g{k="a\"b\\c\nd"} 1`
	if !strings.Contains(sb.String(), want+"\n") {
		t.Errorf("escaped series %q missing from:\n%s", want, sb.String())
	}
}

// TestReRegisterConsistent: fetching an existing family with the same
// shape returns the same series; a different shape panics.
func TestReRegisterConsistent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "c")
	a.Inc()
	if b := r.Counter("c_total", "c"); b.Value() != 1 {
		t.Errorf("re-registered counter lost its value")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different kind did not panic")
		}
	}()
	r.Gauge("c_total", "now a gauge")
}

// TestExponentialBuckets pins the helper's growth.
func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(1000, 10, 4)
	want := []float64{1000, 10000, 100000, 1000000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestRunnerMetricsRegister: the bundle registers cleanly and exposes
// the contract names CI greps for.
func TestRunnerMetricsRegister(t *testing.T) {
	r := NewRegistry()
	m := NewRunnerMetrics(r)
	m.RunsCompleted.Add(8)
	RegisterBuildInfo(r, Build{Version: "(devel)", GoVersion: "go1.24"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"campaign_runs_completed_total 8",
		"# TYPE campaign_run_wall_seconds histogram",
		"# TYPE campaign_workers_busy gauge",
		`campaignd_build_info{version="(devel)",revision="",go="go1.24"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
