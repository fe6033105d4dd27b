package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/runner"
)

// scrape fetches /metrics and parses it into name{labels} -> value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		vals[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return vals
}

// TestMetricsEndpoint drives a campaign through the HTTP surface and
// asserts the scrape: completed-run counter equals the JSONL record
// count (the CI contract), per-campaign gauges settle, and the
// build/uptime info metrics exist.
func TestMetricsEndpoint(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{Exec: runner.ExecOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	c, _, err := svc.Submit(tinyCampaign().File())
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	// Record count straight from the daemon's own results endpoint.
	resp, err := http.Get(ts.URL + "/campaigns/" + c.ID() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	records := strings.Count(string(body), "\n")
	if records != 8 {
		t.Fatalf("records = %d, want 8", records)
	}

	vals := scrape(t, ts.URL)
	if got := vals["campaign_runs_completed_total"]; got != float64(records) {
		t.Errorf("campaign_runs_completed_total = %v, want %d", got, records)
	}
	if got := vals["campaign_runs_started_total"]; got != float64(records) {
		t.Errorf("campaign_runs_started_total = %v, want %d (no retries)", got, records)
	}
	if got := vals["campaign_checkpoint_writes_total"]; got != float64(records) {
		t.Errorf("campaign_checkpoint_writes_total = %v, want %d", got, records)
	}
	if got := vals["campaign_workers_busy"]; got != 0 {
		t.Errorf("campaign_workers_busy = %v after settle, want 0", got)
	}
	lbl := fmt.Sprintf("{campaign=%q}", c.ID())
	if got := vals["campaign_done_runs"+lbl]; got != float64(records) {
		t.Errorf("campaign_done_runs%s = %v, want %d", lbl, got, records)
	}
	if got := vals["campaign_total_runs"+lbl]; got != 8 {
		t.Errorf("campaign_total_runs%s = %v, want 8", lbl, got)
	}
	if got := vals["campaign_run_sim_events_count"]; got != 8 {
		t.Errorf("campaign_run_sim_events_count = %v, want 8", got)
	}
	if vals["campaign_run_wall_seconds_sum"] <= 0 {
		t.Error("campaign_run_wall_seconds_sum not positive")
	}
	if vals["campaignd_uptime_seconds"] <= 0 {
		t.Error("campaignd_uptime_seconds not positive")
	}
	found := false
	for k := range vals {
		if strings.HasPrefix(k, "campaignd_build_info{") {
			found = true
			if vals[k] != 1 {
				t.Errorf("%s = %v, want 1", k, vals[k])
			}
		}
	}
	if !found {
		t.Error("campaignd_build_info missing")
	}
	// The scrape itself went through the middleware, so the request
	// histogram has at least the results.jsonl fetch.
	reqKey := `http_request_duration_seconds_count{method="GET",path="GET /campaigns/{id}/results.jsonl",code="200"}`
	if vals[reqKey] < 1 {
		t.Errorf("request histogram missing results fetch; have %v", vals[reqKey])
	}
}

// TestHealthzUptimeBuild: /healthz carries uptime and build info next
// to the existing health fields.
func TestHealthzUptimeBuild(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeS <= 0 {
		t.Errorf("health = %+v", h)
	}
	if h.Build.GoVersion == "" {
		t.Errorf("build info empty: %+v", h.Build)
	}
}

// TestPprofOptIn: /debug/pprof/ is 404 by default and live after
// EnablePprof.
func TestPprofOptIn(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := NewServer(svc)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without opt-in")
	}

	srv.EnablePprof()
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d after EnablePprof", resp.StatusCode)
	}
}

// TestServiceTiming: the daemon's Timing opt-in lands wall_ms and
// peak_queue on every checkpointed record.
func TestServiceTiming(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{Exec: runner.ExecOptions{Workers: 2, Timing: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	c, _, err := svc.Submit(tinyCampaign().File())
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	f, err := os.Open(c.ResultsPath())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var rec struct {
			WallMS    float64 `json:"wall_ms"`
			PeakQueue int     `json:"peak_queue"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.WallMS <= 0 || rec.PeakQueue <= 0 {
			t.Errorf("record %d: wall_ms=%v peak_queue=%d", n, rec.WallMS, rec.PeakQueue)
		}
		n++
	}
	if n != 8 {
		t.Fatalf("records = %d, want 8", n)
	}
}
