// Chaos suite for the service layer: daemon kill-loops with torn
// checkpoint tails, injected run panics, dying checkpoint disks, and
// drain mode — asserting the acceptance criterion throughout: the
// final results.jsonl is byte-identical to an uninterrupted, fault-free
// run, and no injected failure ever kills the daemon.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
)

// chaosServeCampaign widens tinyCampaign to 104 runs so a kill-loop
// has room to interrupt execution several times mid-flight.
func chaosServeCampaign() runner.Campaign {
	c := tinyCampaign()
	c.Name = "chaos"
	c.Reps = 26 // 2 schemes x 2 loads x 26 reps = 104 runs
	return c
}

// chaosReference is the fault-free uninterrupted output for
// chaosServeCampaign.
func chaosReference(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := runner.Execute(context.Background(), chaosServeCampaign(), runner.ExecOptions{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitRuns polls a campaign until at least n runs are done (or it
// settles).
func waitRuns(t *testing.T, c *Campaign, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := c.Status()
		if st.Done >= n || st.State != StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck at %d/%d runs", st.Done, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServiceKillLoopByteIdentical is the acceptance criterion end to
// end: a 104-run campaign with injected transient panics, executed by a
// daemon that is killed and restarted at least three times — with the
// checkpoint tail torn between lives to simulate writes cut off
// mid-record — must converge to a results.jsonl byte-identical to an
// uninterrupted fault-free run.
func TestServiceKillLoopByteIdentical(t *testing.T) {
	ref := chaosReference(t)
	dir := t.TempDir()
	cf := chaosServeCampaign().File()
	id := SpecID(cf)

	inj := fault.New(4242)
	opts := Options{
		Exec: runner.ExecOptions{
			Workers:    3,
			Retries:    2,
			RunTimeout: 5 * time.Second,
			RunHook:    inj.RunHook(fault.RunFaults{PanicP: 0.2}),
		},
		Checkpoint: CheckpointOptions{SyncEvery: 8},
	}

	const kills = 4
	for life := 0; life <= kills; life++ {
		svc, err := NewService(dir, opts)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		var c *Campaign
		if life == 0 {
			var created bool
			c, created, err = svc.Submit(cf)
			if err != nil || !created {
				t.Fatalf("submit: %v created=%v", err, created)
			}
		} else {
			c, err = svc.Get(id)
			if err != nil {
				t.Fatalf("life %d lost the campaign: %v", life, err)
			}
		}
		if life < kills {
			// Let it make some progress past what earlier lives reached,
			// then kill it. Close cancels and waits, leaving a valid
			// resumable prefix — the torn tail below is the real violence.
			waitRuns(t, c, 10+life*15)
			svc.Close()
			waitSettled(t, c)
			tearTail(t, c.ResultsPath(), inj, life)
			continue
		}
		// Final life: run to completion.
		waitSettled(t, c)
		st := c.Status()
		if st.State != StateDone || st.Done != 104 || st.Failed != 0 {
			t.Fatalf("final life: %+v", st)
		}
		got, err := os.ReadFile(c.ResultsPath())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("kill-loop JSONL differs from uninterrupted fault-free run (%d vs %d bytes)", len(got), len(ref))
		}
		svc.Close()
	}
}

// tearTail chops a deterministic number of bytes off the checkpoint,
// usually cutting mid-record — the shape a SIGKILL mid-write leaves.
func tearTail(t *testing.T, path string, inj *fault.Injector, life int) {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(inj.Intn(80, "tear", string(rune('0'+life))))
	if cut > fi.Size() {
		cut = fi.Size()
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

// TestServiceDegradedMode: a campaign whose checkpoint disk dies after
// a few hundred bytes keeps running — results stream in memory, the
// status and /healthz surface the degraded state, a "degraded" SSE
// event fires — instead of crashing the daemon or failing the campaign.
func TestServiceDegradedMode(t *testing.T) {
	inj := fault.New(7)
	svc, err := NewService(t.TempDir(), Options{
		Exec: runner.ExecOptions{Workers: 2},
		Checkpoint: CheckpointOptions{Open: func(path string, flag int, perm os.FileMode) (CheckpointFile, error) {
			f, err := os.OpenFile(path, flag, perm)
			if err != nil {
				return nil, err
			}
			return inj.Writer(f, fault.WriterFaults{FailAfterBytes: 400}), nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	c, _, err := svc.Submit(tinyCampaign().File())
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	st := c.Status()
	if st.State != StateDone || st.Done != 8 {
		t.Fatalf("degraded campaign did not finish: %+v", st)
	}
	if !st.Degraded || !strings.Contains(st.DegradedError, "no space left") {
		t.Fatalf("degraded state not surfaced: %+v", st)
	}
	if h := svc.Health(); h.Status != "degraded" || h.Degraded != 1 {
		t.Fatalf("health = %+v, want degraded", h)
	}
	// The event stream carries the degradation and still delivers every
	// result.
	history, _, cancel := c.Subscribe()
	defer cancel()
	var degraded, results int
	for _, e := range history {
		switch e.Type {
		case "degraded":
			degraded++
		case "result":
			results++
		}
	}
	if degraded != 1 || results != 8 {
		t.Fatalf("history: %d degraded, %d results; want 1 and 8", degraded, results)
	}
}

// TestServiceFailureEvents: a run that fails every attempt is
// quarantined as a run_failed event (after run_retried events for the
// re-attempts), counted in the status and health, and never takes the
// campaign down.
func TestServiceFailureEvents(t *testing.T) {
	runs, err := tinyCampaign().Runs()
	if err != nil {
		t.Fatal(err)
	}
	victim := runs[2].Key
	svc, err := NewService(t.TempDir(), Options{Exec: runner.ExecOptions{
		Workers: 2,
		Retries: 1,
		RunHook: func(key string, attempt int) {
			if key == victim {
				panic("chaos: permanent fault")
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	c, _, err := svc.Submit(tinyCampaign().File())
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	st := c.Status()
	if st.State != StateDone || st.Done != 8 || st.Failed != 1 || st.Retried != 1 {
		t.Fatalf("status after quarantine: %+v", st)
	}
	if h := svc.Health(); h.FailedRuns != 1 {
		t.Fatalf("health = %+v, want 1 failed run", h)
	}
	history, _, cancel := c.Subscribe()
	defer cancel()
	var failed, retried, results int
	for _, e := range history {
		switch e.Type {
		case "run_failed":
			failed++
			var ev struct {
				Result runner.Result `json:"result"`
			}
			if err := json.Unmarshal(e.Data, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Result.Key != victim || ev.Result.Status != runner.StatusFailed || ev.Result.Attempts != 2 {
				t.Fatalf("run_failed payload: %+v", ev.Result)
			}
		case "run_retried":
			retried++
		case "result":
			results++
		}
	}
	if failed != 1 || retried != 1 || results != 7 {
		t.Fatalf("events: %d failed, %d retried, %d results", failed, retried, results)
	}
}

// TestServiceDrain: a draining service rejects new specs with 503,
// reports draining on /healthz (503), but still reattaches known specs
// so orchestrated restarts never duplicate work.
func TestServiceDrain(t *testing.T) {
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
	svc.StartDrain()

	// Known spec reattaches.
	again, created, err := svc.Submit(tinyCampaign().File())
	if err != nil || created || again != c {
		t.Fatalf("known spec during drain: %v created=%v same=%v", err, created, again == c)
	}
	// New spec is rejected.
	other := chaosServeCampaign().File()
	if _, _, err := svc.Submit(other); err != ErrDraining {
		t.Fatalf("new spec during drain: %v, want ErrDraining", err)
	}
	// HTTP surface: healthz 503 + draining; submit 503.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}
	spec, _ := json.Marshal(other)
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}
	waitSettled(t, c)
}

// TestHealthzOK pins the healthy /healthz payload.
func TestHealthzOK(t *testing.T) {
	svc, err := NewService(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	var h Health
	if err := json.Unmarshal(get(t, ts.URL+"/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Campaigns != 0 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestTornWriteEveryOffset is the torn-write property test: truncating
// the checkpoint at EVERY byte offset inside its final record — every
// possible place a crash can cut a write short — must leave a file that
// RunCampaign's resume restores to the byte-identical complete
// output.
func TestTornWriteEveryOffset(t *testing.T) {
	ref := referenceJSONL(t)
	// Start of the final record: one past the penultimate newline.
	body := ref[:len(ref)-1] // drop the trailing newline to find the previous one
	lastStart := bytes.LastIndexByte(body, '\n') + 1
	if lastStart <= 0 {
		t.Fatalf("reference has fewer than two records (%d bytes)", len(ref))
	}

	path := t.TempDir() + "/results.jsonl"
	for cut := lastStart; cut < len(ref); cut++ {
		if err := os.WriteFile(path, ref[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		sum, err := RunCampaign(context.Background(), tinyCampaign(), path, true, runner.ExecOptions{Workers: 1}, CheckpointOptions{})
		if err != nil {
			t.Fatalf("cut at %d: resume: %v", cut, err)
		}
		if sum.Executed != 1 || sum.Skipped != 7 {
			t.Fatalf("cut at %d: summary %+v, want 1 executed / 7 resumed", cut, sum)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("cut at %d: repaired+resumed file differs from reference", cut)
		}
	}
}
