package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// tinyCampaign is the runner tests' two-node campaign: 8 runs that
// complete in milliseconds.
func tinyCampaign() runner.Campaign {
	return runner.Campaign{
		Name: "tiny",
		Base: scenario.Options{
			Static:    []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
			FlowPairs: [][2]packet.NodeID{{0, 1}},
			Duration:  5 * sim.Second,
			Warmup:    sim.Duration(sim.Second),
		},
		Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
		Axes:    runner.Axes{LoadsKbps: []float64{40, 80}, Reps: 2},
	}
}

// referenceJSONL is what cmd/campaign would write for the spec: a
// direct, uninterrupted Execute. The service tests compare against it
// byte for byte.
func referenceJSONL(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := runner.Execute(context.Background(), tinyCampaign(), runner.ExecOptions{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitSettled(t *testing.T, c *Campaign) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("campaign %s did not settle", c.ID())
	}
}

func TestSpecID(t *testing.T) {
	cf := tinyCampaign().File()
	id := SpecID(cf)
	if len(id) != 12 {
		t.Fatalf("id = %q", id)
	}
	if SpecID(cf) != id {
		t.Fatal("SpecID not stable")
	}
	// Version normalization: a legacy (version-less) spec and the pinned
	// form are the same campaign.
	legacy := cf
	legacy.Version = 0
	if SpecID(legacy) != id {
		t.Fatal("version-less spec hashed differently")
	}
	other := cf
	other.Reps = 3
	if SpecID(other) == id {
		t.Fatal("different specs collided")
	}
	// Daemon state dirs are named by SpecID, so these goldens must hold
	// across refactors: a drift would silently re-run every persisted
	// campaign after an upgrade.
	for name, want := range map[string]string{
		"scale":         "dd9e98f5e8fd",
		"ablation-ctrl": "0d2d2e475fa8",
		"bursty":        "086a6cc9086f",
	} {
		c, err := runner.Preset(name, 4, 1, []float64{250})
		if err != nil {
			t.Fatal(err)
		}
		if got := SpecID(c.File()); got != want {
			t.Errorf("SpecID(%s preset) = %s, want %s", name, got, want)
		}
	}
}

// TestCampaignFileLayout pins the spec's key names and order with every
// field set, and the SpecID that hashes them: daemon state directories
// are named by that ID, so a renamed or reordered key would orphan
// every persisted campaign. The spec is filled field by field so the
// test states the wire format, not how CampaignFile is composed.
func TestCampaignFileLayout(t *testing.T) {
	var cf runner.CampaignFile
	cf.Version = runner.SpecVersion
	cf.Name = "layout"
	cf.Base = scenario.FileConfig{Scheme: "basic", DurationS: 20}
	cf.Variants = []runner.Variant{{Name: "no3way", Patch: scenario.FileConfig{DisableThreeWay: true}}}
	cf.Schemes = []string{"basic", "pcmac"}
	cf.Traffics = []string{"cbr", "poisson"}
	cf.Topologies = []string{"grid"}
	cf.LoadsKbps = []float64{250, 500}
	cf.Nodes = []int{25, 50}
	cf.SpeedsMps = []float64{1, 3}
	cf.ShadowingDB = []float64{2}
	cf.SafetyFactors = []float64{0.5, 0.7}
	cf.BatteriesJ = []float64{40}
	cf.EnergyProfiles = []string{"sensor"}
	cf.Reps = 2
	cf.SeedList = []int64{7, 11}
	cf.BaseSeed = 5

	const want = `{"version":1,"name":"layout","base":{"scheme":"basic","duration_s":20},` +
		`"variants":[{"name":"no3way","patch":{"scheme":"","disable_three_way":true}}],` +
		`"schemes":["basic","pcmac"],"traffics":["cbr","poisson"],"topologies":["grid"],` +
		`"loads_kbps":[250,500],"nodes":[25,50],"speeds_mps":[1,3],"shadowing_db":[2],` +
		`"safety_factors":[0.5,0.7],"batteries_j":[40],"energy_profiles":["sensor"],` +
		`"reps":2,"seed_list":[7,11],"base_seed":5}`
	b, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("spec layout changed:\n got %s\nwant %s", b, want)
	}
	if got, want := SpecID(cf), "ef77ac7096c6"; got != want {
		t.Fatalf("SpecID = %s, want %s", got, want)
	}
	back, err := runner.ParseCampaignFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(back); string(again) != want {
		t.Fatalf("spec does not round-trip:\n got %s\nwant %s", again, want)
	}
}

// TestHTTPSubmitPollFetch walks the client lifecycle over real HTTP:
// submit a spec, re-submit idempotently, poll status to completion,
// fetch the JSONL (must match cmd/campaign's output byte-for-byte),
// the aggregate CSV and the dashboard; plus the 400/404 error surface.
func TestHTTPSubmitPollFetch(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{Exec: runner.ExecOptions{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	spec, err := json.Marshal(tinyCampaign().File())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.Total != 8 || st.Name != "tiny" {
		t.Fatalf("submit returned %+v", st)
	}

	// Idempotent re-submission: 200, same campaign.
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var again Status
	if err := json.NewDecoder(resp.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.ID != st.ID {
		t.Fatalf("re-submit = %d %+v, want 200 with id %s", resp.StatusCode, again, st.ID)
	}

	// Poll to completion.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/campaigns/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur Status
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == StateDone {
			if cur.Done != 8 || cur.Executed != 8 {
				t.Fatalf("final status %+v", cur)
			}
			break
		}
		if cur.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v", cur)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Served JSONL is byte-identical to cmd/campaign's output.
	body := get(t, ts.URL+"/campaigns/"+st.ID+"/results.jsonl")
	if want := referenceJSONL(t); !bytes.Equal(body, want) {
		t.Fatalf("served JSONL differs from direct execution:\n--- served ---\n%s--- direct ---\n%s", body, want)
	}

	csv := string(get(t, ts.URL+"/campaigns/"+st.ID+"/aggregate.csv"))
	if lines := strings.Split(strings.TrimSpace(csv), "\n"); len(lines) != 5 {
		t.Fatalf("aggregate lines = %d, want header + 4:\n%s", len(lines), csv)
	}

	dash := string(get(t, ts.URL+"/campaigns/"+st.ID+"/dashboard"))
	for _, want := range []string{"campaign tiny", st.ID, "results.jsonl", "base topology"} {
		if !strings.Contains(dash, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// The list endpoint knows the campaign.
	var list []Status
	if err := json.Unmarshal(get(t, ts.URL+"/campaigns"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Error surface: a typo'd field is a 400 naming the field; an
	// unknown id is a 404.
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"name": "x", "loads_kpbs": [40]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "loads_kpbs") {
		t.Fatalf("bad spec: %d %s", resp.StatusCode, b)
	}
	resp, err = http.Get(ts.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status = %d, want 404", resp.StatusCode)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, b)
	}
	return b
}

type sseEvent struct {
	typ  string
	data string
}

// parseSSE splits a text/event-stream body into events.
func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var out []sseEvent
	for _, block := range strings.Split(body, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var e sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				e.typ = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				e.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if e.typ == "" {
			t.Fatalf("unframed SSE block %q", block)
		}
		out = append(out, e)
	}
	return out
}

// TestHTTPSSEOrdering pins the event-stream contract: a snapshot first,
// then "result" events in exact campaign order (done = 1..total), a
// final aggregate, and a terminal "done" — and a subscriber connecting
// after completion replays the identical sequence a live subscriber
// saw.
func TestHTTPSSEOrdering(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{Exec: runner.ExecOptions{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	c, created, err := svc.Submit(tinyCampaign().File())
	if err != nil || !created {
		t.Fatalf("submit: %v created=%v", err, created)
	}

	// Live subscriber: attached right after submission, reads until the
	// campaign settles and the hub closes the stream.
	live := string(get(t, ts.URL+"/campaigns/"+c.ID()+"/events"))
	waitSettled(t, c)
	// Replay subscriber: attached after completion.
	replay := string(get(t, ts.URL+"/campaigns/"+c.ID()+"/events"))

	check := func(name, body string) []sseEvent {
		events := parseSSE(t, body)
		if len(events) == 0 || events[0].typ != "snapshot" {
			t.Fatalf("%s: stream does not open with a snapshot: %+v", name, events)
		}
		wantDone := 1
		var keys []string
		for _, e := range events[1:] {
			switch e.typ {
			case "result":
				var ev struct {
					Done   int `json:"done"`
					Result struct {
						Key string `json:"key"`
					} `json:"result"`
				}
				if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
					t.Fatalf("%s: bad result payload %q: %v", name, e.data, err)
				}
				if ev.Done != wantDone {
					t.Fatalf("%s: result out of order: done=%d, want %d", name, ev.Done, wantDone)
				}
				wantDone++
				keys = append(keys, ev.Result.Key)
			case "aggregate", "done":
			default:
				t.Fatalf("%s: unknown event type %q", name, e.typ)
			}
		}
		if wantDone != 9 {
			t.Fatalf("%s: saw %d results, want 8", name, wantDone-1)
		}
		if last := events[len(events)-1]; last.typ != "done" || !strings.Contains(last.data, StateDone) {
			t.Fatalf("%s: stream does not end with done: %+v", name, last)
		}
		// The result order is the campaign order, not an arrival order.
		runs, err := tinyCampaign().Runs()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			if keys[i] != r.Key {
				t.Fatalf("%s: result %d is %s, want %s", name, i, keys[i], r.Key)
			}
		}
		return events
	}
	liveEvents := check("live", live)
	replayEvents := check("replay", replay)

	// Replay is the identical sequence (snapshots aside: they capture
	// connect-time status).
	if len(liveEvents) != len(replayEvents) {
		t.Fatalf("live saw %d events, replay %d", len(liveEvents), len(replayEvents))
	}
	for i := range liveEvents {
		if liveEvents[i].typ == "snapshot" {
			continue
		}
		if liveEvents[i] != replayEvents[i] {
			t.Fatalf("event %d differs between live and replay:\nlive:   %+v\nreplay: %+v", i, liveEvents[i], replayEvents[i])
		}
	}
}

// TestDaemonRestartResume is the acceptance criterion: kill the daemon
// mid-campaign, restart it on the same state dir, and the served
// results.jsonl must converge to a byte-identical copy of an
// uninterrupted run's output.
func TestDaemonRestartResume(t *testing.T) {
	ref := referenceJSONL(t)
	dir := t.TempDir()
	cf := tinyCampaign().File()

	// First daemon: submit, then shut down immediately — in-flight runs
	// finish, the rest never dispatch, the checkpoint stays a prefix.
	svc1, err := NewService(dir, Options{Exec: runner.ExecOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c1, created, err := svc1.Submit(cf)
	if err != nil || !created {
		t.Fatalf("submit: %v created=%v", err, created)
	}
	svc1.Close()
	waitSettled(t, c1)
	st := c1.Status()
	if st.State != StateCanceled && st.State != StateDone {
		t.Fatalf("after shutdown: %+v", st)
	}
	partial, err := os.ReadFile(c1.ResultsPath())
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ref, partial) {
		t.Fatalf("interrupted checkpoint is not a prefix of the reference:\n--- partial ---\n%s--- ref ---\n%s", partial, ref)
	}

	// Second daemon on the same dir: the persisted campaign resumes on
	// its own (no re-submission) and completes.
	svc2, err := NewService(dir, Options{Exec: runner.ExecOptions{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	c2, err := svc2.Get(c1.ID())
	if err != nil {
		t.Fatalf("restarted daemon lost the campaign: %v", err)
	}
	waitSettled(t, c2)
	st = c2.Status()
	if st.State != StateDone || st.Done != 8 {
		t.Fatalf("resumed campaign: %+v", st)
	}
	got, err := os.ReadFile(c2.ResultsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("resumed JSONL differs from uninterrupted run:\n--- resumed ---\n%s--- ref ---\n%s", got, ref)
	}

	// A client re-posting the same spec reattaches instead of forking.
	c3, created, err := svc2.Submit(cf)
	if err != nil || created || c3 != c2 {
		t.Fatalf("re-submit after restart: %v created=%v same=%v", err, created, c3 == c2)
	}
}

// TestRestartSkipsBadStoredCampaign: a state dir holding one valid
// stored campaign beside one unparseable and one invalid spec.json
// still starts; the valid campaign resumes and completes, each bad one
// is logged with its path and left on disk as it was.
func TestRestartSkipsBadStoredCampaign(t *testing.T) {
	dir := t.TempDir()
	cf := tinyCampaign().File()
	spec, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	stored := map[string][]byte{
		"torn":     []byte(`{"name": "torn", "base": {`),
		"patch":    []byte(`{"name": "patch", "variants": [{"name": "v", "patch": {"scheme": "pcmac"}}]}`),
		SpecID(cf): spec,
	}
	for name, b := range stored {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, "spec.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var logs bytes.Buffer
	svc, err := NewService(dir, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatalf("NewService refused a state dir with one bad campaign: %v", err)
	}
	defer svc.Close()
	c, err := svc.Get(SpecID(cf))
	if err != nil {
		t.Fatalf("valid stored campaign not resumed: %v", err)
	}
	waitSettled(t, c)
	if st := c.Status(); st.State != StateDone || st.Done != 8 {
		t.Fatalf("resumed campaign: %+v", st)
	}
	for _, name := range []string{"torn", "patch"} {
		path := filepath.Join(dir, name, "spec.json")
		if !strings.Contains(logs.String(), "level=ERROR") || !strings.Contains(logs.String(), path) {
			t.Errorf("no error log naming %s:\n%s", path, logs.String())
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, stored[name]) {
			t.Errorf("%s changed: %q, %v", path, got, err)
		}
		if ents, _ := os.ReadDir(filepath.Join(dir, name)); len(ents) != 1 {
			t.Errorf("%s holds %d entries, want only spec.json", name, len(ents))
		}
	}
	if n := len(svc.List()); n != 1 {
		t.Errorf("service knows %d campaigns, want 1", n)
	}
}

// TestRunCampaignCancelResume drives serve.RunCampaign (the shared
// CLI/daemon execution path) through an interrupt-and-resume cycle on a
// real checkpoint file.
func TestRunCampaignCancelResume(t *testing.T) {
	ref := referenceJSONL(t)
	path := t.TempDir() + "/results.jsonl"

	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := RunCampaign(ctx, tinyCampaign(), path, false, runner.ExecOptions{
		Workers: 1,
		Progress: runner.ProgressFunc(func(ev runner.RunEvent) {
			if n++; n == 2 {
				cancel()
			}
		}),
	}, CheckpointOptions{})
	cancel()
	if err == nil {
		t.Fatal("cancelled RunCampaign returned nil")
	}

	sum, err := RunCampaign(context.Background(), tinyCampaign(), path, true, runner.ExecOptions{Workers: 4}, CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped == 0 || sum.Skipped+sum.Executed != sum.Total {
		t.Fatalf("resume summary %+v", sum)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("interrupt+resume JSONL differs from uninterrupted run:\n--- got ---\n%s--- ref ---\n%s", got, ref)
	}
}

// TestHubSlowSubscriberKicked: a subscriber that stops draining is
// disconnected instead of blocking publishes or seeing a gap.
func TestHubSlowSubscriberKicked(t *testing.T) {
	h := newHub()
	_, live, cancel := h.subscribe()
	defer cancel()
	for i := 0; i < 2000; i++ { // overflow the 1024 buffer without reading
		h.publish("result", map[string]int{"i": i})
	}
	drained := 0
	for range live {
		drained++
	}
	if drained != 1024 {
		t.Fatalf("drained %d events, want the full buffer then disconnect", drained)
	}
	// The log kept everything; a fresh subscriber replays it all.
	history, _, cancel2 := h.subscribe()
	defer cancel2()
	if len(history) != 2000 {
		t.Fatalf("log has %d events, want 2000", len(history))
	}
	var last struct {
		I int `json:"i"`
	}
	if err := json.Unmarshal(history[1999].Data, &last); err != nil || last.I != 1999 {
		t.Fatalf("log tail = %s (%v)", history[1999].Data, err)
	}
}
