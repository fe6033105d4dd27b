package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mac"
)

// chaosCampaign is a 120-run grid of millisecond-scale simulations —
// big enough that injected faults hit a meaningful sample of runs.
func chaosCampaign() Campaign {
	return Campaign{
		Name:    "chaos",
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
		Axes:    Axes{LoadsKbps: []float64{40, 80}, Reps: 30},
	}
}

// TestChaosFaultsByteIdentical is the acceptance criterion for
// transient faults: with internal/fault injecting panics and hangs
// into a 100+-run campaign, retries absorb every fault and the final
// JSONL is byte-identical to a fault-free run — success records carry
// no trace of how many attempts they cost.
func TestChaosFaultsByteIdentical(t *testing.T) {
	camp := chaosCampaign()
	var ref bytes.Buffer
	if _, err := Execute(context.Background(), camp, ExecOptions{Out: &ref}); err != nil {
		t.Fatal(err)
	}

	// Hang well past the watchdog so the timeout — not the sleep ending
	// — is what fails the attempt; keep the watchdog generous enough
	// that a loaded CI machine never times out a genuine run.
	in := fault.New(12345)
	hook := in.RunHook(fault.RunFaults{PanicP: 0.25, HangP: 0.04, Hang: 3 * time.Second})
	var mu sync.Mutex
	retried := map[string]int{}
	var faulty bytes.Buffer
	sum, err := Execute(context.Background(), camp, ExecOptions{
		Out:          &faulty,
		RunTimeout:   time.Second,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		RunHook:      hook,
		OnRetry: func(ev RetryEvent) {
			mu.Lock()
			retried[ev.Run.Key]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 0 {
		t.Fatalf("transient faults quarantined %d runs", sum.Failed)
	}
	if len(retried) == 0 {
		t.Fatal("fault plan injected nothing — raise the probabilities")
	}
	if !bytes.Equal(faulty.Bytes(), ref.Bytes()) {
		t.Fatalf("faulty execution differs from fault-free reference:\n--- faulty ---\n%.2000s\n--- ref ---\n%.2000s", faulty.Bytes(), ref.Bytes())
	}
	t.Logf("%d/%d runs retried through injected faults", len(retried), sum.Total)
}

// permanentHook faults one run key on every attempt.
func permanentHook(key string, f func()) func(string, int) {
	return func(k string, attempt int) {
		if k == key {
			f()
		}
	}
}

// TestPanicQuarantined: a run that panics on every attempt never kills
// the process; after its retries it appears as a typed failed record
// in campaign position, and the other runs are untouched.
func TestPanicQuarantined(t *testing.T) {
	camp := tinyCampaign()
	runs, err := camp.Runs()
	if err != nil {
		t.Fatal(err)
	}
	target := runs[3]

	var buf bytes.Buffer
	sum, err := Execute(context.Background(), camp, ExecOptions{
		Out:          &buf,
		Retries:      2,
		RetryBackoff: time.Millisecond,
		RunHook:      permanentHook(target.Key, func() { panic("injected: poisoned grid point") }),
	})
	if err != nil {
		t.Fatalf("Execute returned %v — a quarantined run must not abort the campaign", err)
	}
	if sum.Failed != 1 || sum.Executed != 8 {
		t.Fatalf("summary %+v, want 8 executed with 1 failed", sum)
	}
	results, err := LoadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("records = %d, want 8", len(results))
	}
	rec := results[3]
	if !rec.Failed() || rec.Status != StatusFailed {
		t.Fatalf("record 3 = %+v, want status failed", rec)
	}
	if rec.Key != target.Key || rec.Seed != target.Seed || rec.Rep != target.Rep {
		t.Fatalf("failed record lost its coordinates: %+v vs run %+v", rec, target)
	}
	if !strings.Contains(rec.Error, "panic") || !strings.Contains(rec.Error, "poisoned grid point") {
		t.Fatalf("error = %q, want the panic text", rec.Error)
	}
	if rec.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", rec.Attempts)
	}
	for i, r := range results {
		if i != 3 && r.Failed() {
			t.Fatalf("record %d unexpectedly failed: %+v", i, r)
		}
	}
}

// TestTimeoutQuarantined: the watchdog converts a hung run into a
// failed record instead of wedging its worker forever.
func TestTimeoutQuarantined(t *testing.T) {
	camp := tinyCampaign()
	runs, err := camp.Runs()
	if err != nil {
		t.Fatal(err)
	}
	target := runs[5]

	var buf bytes.Buffer
	start := time.Now()
	sum, err := Execute(context.Background(), camp, ExecOptions{
		Out:          &buf,
		RunTimeout:   50 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		RunHook:      permanentHook(target.Key, func() { time.Sleep(2 * time.Second) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary %+v, want 1 failed", sum)
	}
	results, err := LoadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec := results[5]
	if !rec.Failed() || !strings.Contains(rec.Error, "timed out") || rec.Attempts != 2 {
		t.Fatalf("record 5 = %+v, want a 2-attempt timeout quarantine", rec)
	}
	// Two 50 ms watchdog firings plus a 1 ms backoff — nowhere near the
	// 2 s the hung attempts would have taken.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("campaign took %v — the watchdog did not fire", elapsed)
	}
}

// TestResumeRetriesQuarantined: a resume re-attempts quarantined runs
// by default, replacing the failure with a measurement; NoRetryFailed
// keeps the quarantine record as final.
func TestResumeRetriesQuarantined(t *testing.T) {
	camp := tinyCampaign()
	runs, err := camp.Runs()
	if err != nil {
		t.Fatal(err)
	}
	target := runs[2]

	// First pass: the target run fails permanently and is quarantined.
	var first bytes.Buffer
	sum, err := Execute(context.Background(), camp, ExecOptions{
		Out:          &first,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		RunHook:      permanentHook(target.Key, func() { panic("injected") }),
	})
	if err != nil || sum.Failed != 1 {
		t.Fatalf("first pass: %v, %+v", err, sum)
	}
	checkpoint, err := LoadResults(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Resume with the fault gone: only the quarantined run re-executes.
	var second bytes.Buffer
	sum, err = Execute(context.Background(), camp, ExecOptions{
		Out:       &second,
		Completed: ResumeSet(checkpoint),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 1 || sum.Skipped != 7 || sum.Failed != 0 {
		t.Fatalf("resume summary %+v, want exactly the quarantined run re-executed", sum)
	}
	healed, err := LoadResults(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(healed) != 1 || healed[0].Key != target.Key || healed[0].Failed() {
		t.Fatalf("resume emitted %+v, want a clean record for %s", healed, target.Key)
	}
	// The concatenated file's resume set keeps the newest record per
	// key, so the quarantine is superseded.
	all, err := LoadResults(bytes.NewReader(append(append([]byte{}, first.Bytes()...), second.Bytes()...)))
	if err != nil {
		t.Fatal(err)
	}
	if rs := ResumeSet(all); rs[target.Key].Failed() {
		t.Fatal("concatenated checkpoint still quarantines the healed run")
	}

	// NoRetryFailed: the quarantine record is final; nothing executes.
	sum, err = Execute(context.Background(), camp, ExecOptions{
		Completed:     ResumeSet(checkpoint),
		NoRetryFailed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 || sum.Skipped != 8 || sum.Failed != 1 {
		t.Fatalf("NoRetryFailed summary %+v, want everything skipped with the failure kept", sum)
	}
}

// TestRetryEventsObserved: OnRetry sees each failed attempt with its
// 1-based numbering and a bounded backoff, and no event fires for the
// terminal attempt.
func TestRetryEventsObserved(t *testing.T) {
	camp := tinyCampaign()
	runs, err := camp.Runs()
	if err != nil {
		t.Fatal(err)
	}
	target := runs[0]

	var mu sync.Mutex
	var events []RetryEvent
	_, err = Execute(context.Background(), camp, ExecOptions{
		Retries:      2,
		RetryBackoff: time.Millisecond,
		RunHook:      permanentHook(target.Key, func() { panic("injected") }),
		OnRetry: func(ev RetryEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("retry events = %d, want 2 (terminal attempt is not a retry)", len(events))
	}
	for i, ev := range events {
		if ev.Run.Key != target.Key || ev.Attempt != i+1 || ev.Err == nil {
			t.Fatalf("event %d = %+v", i, ev)
		}
		if ev.Backoff <= 0 || ev.Backoff > MaxRetryBackoff {
			t.Fatalf("event %d backoff = %v", i, ev.Backoff)
		}
	}
}

// TestBackoffCapped pins the retry schedule: exponential from the
// base, saturating at MaxRetryBackoff, defaulting when unset.
func TestBackoffCapped(t *testing.T) {
	for _, tc := range []struct {
		base  time.Duration
		retry int
		want  time.Duration
	}{
		{0, 1, DefaultRetryBackoff},
		{100 * time.Millisecond, 1, 100 * time.Millisecond},
		{100 * time.Millisecond, 2, 200 * time.Millisecond},
		{100 * time.Millisecond, 5, 1600 * time.Millisecond},
		{time.Second, 20, MaxRetryBackoff},
		{time.Minute, 1, MaxRetryBackoff},
	} {
		if got := backoffFor(tc.base, tc.retry); got != tc.want {
			t.Errorf("backoffFor(%v, %d) = %v, want %v", tc.base, tc.retry, got, tc.want)
		}
	}
}

// TestFailedRecordJSONShape: success records must not gain any bytes
// from the failure protocol, and failed records carry exactly the
// typed fields plus the grid coordinates of the same run's clean
// record.
func TestFailedRecordJSONShape(t *testing.T) {
	camp := tinyCampaign()
	runs, err := camp.Runs()
	if err != nil {
		t.Fatal(err)
	}
	var clean, faulty bytes.Buffer
	if _, err := Execute(context.Background(), camp, ExecOptions{Out: &clean}); err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), camp, ExecOptions{
		Out:          &faulty,
		Retries:      1,
		RetryBackoff: time.Millisecond,
		RunHook:      permanentHook(runs[7].Key, func() { panic("injected") }),
	}); err != nil {
		t.Fatal(err)
	}
	cleanLines := bytes.Split(bytes.TrimSuffix(clean.Bytes(), []byte("\n")), []byte("\n"))
	faultyLines := bytes.Split(bytes.TrimSuffix(faulty.Bytes(), []byte("\n")), []byte("\n"))
	for i := 0; i < 7; i++ {
		if !bytes.Equal(cleanLines[i], faultyLines[i]) {
			t.Fatalf("success record %d changed under the failure protocol:\n%s\n%s", i, cleanLines[i], faultyLines[i])
		}
	}
	last := string(faultyLines[7])
	for _, want := range []string{`"status":"failed"`, `"error":"panic: injected"`, `"attempts":2`} {
		if !strings.Contains(last, want) {
			t.Fatalf("failed record missing %s:\n%s", want, last)
		}
	}
	if strings.Contains(string(cleanLines[7]), `"status"`) {
		t.Fatalf("clean record leaks a status field:\n%s", cleanLines[7])
	}

	// The failed record names the same grid point as the run's clean
	// record. tinyBase leaves the node count, speed and safety factor to
	// the scenario defaults, so raw options would read 0 for each.
	var ok, bad Result
	if err := json.Unmarshal(cleanLines[7], &ok); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(faultyLines[7], &bad); err != nil {
		t.Fatal(err)
	}
	coords := func(r Result) Result {
		return Result{
			Key: r.Key, Variant: r.Variant, Scheme: r.Scheme, Traffic: r.Traffic, Topology: r.Topology,
			LoadKbps: r.LoadKbps, Nodes: r.Nodes, SpeedMps: r.SpeedMps, ShadowingDB: r.ShadowingDB,
			SafetyFactor: r.SafetyFactor, EnergyProfile: r.EnergyProfile, BatteryJ: r.BatteryJ,
			Rep: r.Rep, Seed: r.Seed, DurationS: r.DurationS,
		}
	}
	if got, want := coords(bad), coords(ok); !reflect.DeepEqual(got, want) {
		t.Fatalf("failed record coordinates differ from the clean record's:\n got %+v\nwant %+v", got, want)
	}
	if ok.Nodes != 2 || ok.SpeedMps != 3 || ok.SafetyFactor != 0.7 {
		t.Fatalf("clean record %+v does not carry the defaulted coordinates", ok)
	}
}
