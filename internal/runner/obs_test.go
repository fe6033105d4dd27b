package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestObsSinkInvariant: attaching a metrics bundle (Timing off) is pure
// observation — the JSONL stream stays byte-identical to an
// uninstrumented execution. This is the runner half of the
// zero-overhead contract (the scenario half is TestSimStatsSound).
func TestObsSinkInvariant(t *testing.T) {
	c := tinyCampaign()

	var plain bytes.Buffer
	if _, err := Execute(context.Background(), c, ExecOptions{Workers: 1, Out: &plain}); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rm := obs.NewRunnerMetrics(reg)
	var observed bytes.Buffer
	sum, err := Execute(context.Background(), c, ExecOptions{Workers: 4, Out: &observed, Obs: rm})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatalf("metrics sink changed the output bytes:\nplain:\n%sobserved:\n%s", plain.String(), observed.String())
	}
	if strings.Contains(observed.String(), "wall_ms") || strings.Contains(observed.String(), "peak_queue") {
		t.Fatal("timing fields leaked into JSONL without the Timing opt-in")
	}

	// The counters must agree with the Summary.
	if got := rm.RunsCompleted.Value(); int(got) != sum.Total {
		t.Errorf("runs_completed = %d, want %d", got, sum.Total)
	}
	if got := rm.RunsStarted.Value(); int(got) != sum.Executed {
		t.Errorf("runs_started = %d, want %d (no retries configured)", got, sum.Executed)
	}
	if rm.RunsFailed.Value() != 0 || rm.RunsRetried.Value() != 0 || rm.RunsResumed.Value() != 0 {
		t.Errorf("failed/retried/resumed = %d/%d/%d, want 0/0/0",
			rm.RunsFailed.Value(), rm.RunsRetried.Value(), rm.RunsResumed.Value())
	}
	if rm.WorkersBusy.Value() != 0 {
		t.Errorf("workers_busy = %v after drain, want 0", rm.WorkersBusy.Value())
	}
}

// TestTraceSinkInvariant: a nil Trace switches tracing off without
// changing the run. A mobile PCMAC run with a trace.Buffer attached and
// the same run without a sink produce identical JSONL records, and the
// traced run really exercises the guarded MAC trace sites.
func TestTraceSinkInvariant(t *testing.T) {
	o := scenario.Options{
		Scheme:          mac.PCMAC,
		Nodes:           20,
		FieldW:          500,
		FieldH:          500,
		OfferedLoadKbps: 400,
		Duration:        8 * sim.Second,
		Seed:            5,
	}
	record := func(o scenario.Options) []byte {
		t.Helper()
		res, err := scenario.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteResult(&b, ResultOf(SingleRun(o), res)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	plain := record(o)
	var buf trace.Buffer
	o.Trace = &buf
	traced := record(o)
	if !bytes.Equal(plain, traced) {
		t.Fatalf("trace sink changed the record:\nplain:  %straced: %s", plain, traced)
	}
	for _, op := range []trace.Op{trace.OpSend, trace.OpRecv, trace.OpRecvErr, trace.OpAnnounce} {
		if len(buf.OfOp(op)) == 0 {
			t.Errorf("traced run has no %v records", op)
		}
	}
}

// TestObsResumeAndFailureCounters: a checkpointed prefix shows up as
// resumed emissions, and quarantined runs as failures, with retried
// attempts counted separately.
func TestObsResumeAndFailureCounters(t *testing.T) {
	c := tinyCampaign()
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}

	// First pass completes the whole campaign; its first half becomes
	// the checkpoint for the instrumented resume.
	var first bytes.Buffer
	if _, err := Execute(context.Background(), c, ExecOptions{Workers: 1, Out: &first}); err != nil {
		t.Fatal(err)
	}
	all, err := LoadResults(&first)
	if err != nil {
		t.Fatal(err)
	}
	half := all[:len(runs)/2]
	completed := ResumeSet(half)
	var buf bytes.Buffer

	reg := obs.NewRegistry()
	rm := obs.NewRunnerMetrics(reg)
	boom := errors.New("injected")
	failKey := runs[len(runs)-1].Key
	sum, err := Execute(context.Background(), c, ExecOptions{
		Workers:   2,
		Out:       &buf,
		Completed: completed,
		Obs:       rm,
		Retries:   1,
		RunHook: func(key string, attempt int) {
			if key == failKey {
				panic(boom)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(rm.RunsResumed.Value()) != sum.Skipped || sum.Skipped != len(half) {
		t.Errorf("runs_resumed = %d, want Skipped = %d (= %d)", rm.RunsResumed.Value(), sum.Skipped, len(half))
	}
	if int(rm.RunsFailed.Value()) != sum.Failed || sum.Failed != 1 {
		t.Errorf("runs_failed = %d, want Failed = %d (= 1)", rm.RunsFailed.Value(), sum.Failed)
	}
	if got := rm.RunsRetried.Value(); got != 1 {
		t.Errorf("runs_retried = %d, want 1 (one retry before quarantine)", got)
	}
	if int(rm.RunsCompleted.Value()) != sum.Total {
		t.Errorf("runs_completed = %d, want %d (every emission counts, resumed and failed included)",
			rm.RunsCompleted.Value(), sum.Total)
	}
	// started = executed attempts: (Executed-1) clean runs + 2 attempts
	// on the quarantined one.
	if got := int(rm.RunsStarted.Value()); got != sum.Executed+1 {
		t.Errorf("runs_started = %d, want %d", got, sum.Executed+1)
	}
}

// TestTimingOptIn: with Timing set every executed record carries a
// positive wall_ms and peak_queue, resumed records keep whatever they
// were checkpointed with, and the aggregate produces a throughput
// summary.
func TestTimingOptIn(t *testing.T) {
	c := tinyCampaign()
	agg := NewAggregate()
	var buf bytes.Buffer
	sum, err := Execute(context.Background(), c, ExecOptions{Workers: 2, Out: &buf, Timing: true, Progress: agg})
	if err != nil {
		t.Fatal(err)
	}
	results, err := LoadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != sum.Total {
		t.Fatalf("records = %d, want %d", len(results), sum.Total)
	}
	for _, r := range results {
		if r.WallMS <= 0 {
			t.Errorf("%s: wall_ms = %v, want > 0", r.Key, r.WallMS)
		}
		if r.PeakQueue <= 0 {
			t.Errorf("%s: peak_queue = %d, want > 0", r.Key, r.PeakQueue)
		}
	}

	ts, ok := agg.Throughput()
	if !ok {
		t.Fatal("Throughput() not ok with timing on")
	}
	if ts.Runs != sum.Total || ts.RunsPerSec <= 0 || ts.WallP95Ms <= 0 || ts.SimTimeRate <= 0 {
		t.Errorf("summary = %+v", ts)
	}

	// And the inverse: without Timing, Throughput reports nothing.
	plainAgg := NewAggregate()
	if _, err := Execute(context.Background(), c, ExecOptions{Workers: 2, Progress: plainAgg}); err != nil {
		t.Fatal(err)
	}
	if _, ok := plainAgg.Throughput(); ok {
		t.Error("Throughput() ok without timing records")
	}
}

// TestTimingFieldsOmitted: the JSON keys themselves are absent when
// timing is off — trailing omitempty fields, not zero-valued ones.
func TestTimingFieldsOmitted(t *testing.T) {
	b, err := json.Marshal(Result{Key: "k", Metrics: scenario.Metrics{Events: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wall_ms", "peak_queue"} {
		if bytes.Contains(b, []byte(key)) {
			t.Errorf("%q serialized on a zero value: %s", key, b)
		}
	}
}
