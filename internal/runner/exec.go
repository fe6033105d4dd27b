// Campaign execution: a worker pool that pulls runs from a shared queue,
// with results re-sequenced into deterministic campaign order before
// emission, so the JSONL stream is byte-identical for any worker count.
// Execution is context-cancellable; whatever was emitted before the
// cancel is a valid campaign-order checkpoint prefix.
package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Result is one run's JSONL record: the grid coordinates, the seed, and
// the scenario metrics, whose fields encoding/json writes where
// scenario.Metrics is embedded. Field order is fixed by the structs, so
// encoding is deterministic.
type Result struct {
	Key          string  `json:"key"`
	Variant      string  `json:"variant,omitempty"`
	Scheme       string  `json:"scheme"`
	Traffic      string  `json:"traffic,omitempty"`
	Topology     string  `json:"topology,omitempty"`
	LoadKbps     float64 `json:"load_kbps"`
	Nodes        int     `json:"nodes"`
	SpeedMps     float64 `json:"speed_mps"`
	ShadowingDB  float64 `json:"shadowing_db,omitempty"`
	SafetyFactor float64 `json:"safety_factor"`
	// EnergyProfile/BatteryJ echo the energy axis (omitted on the
	// defaults, so pre-energy JSONL and checkpoints stay byte-stable).
	EnergyProfile string  `json:"energy_profile,omitempty"`
	BatteryJ      float64 `json:"battery_j,omitempty"`
	Rep           int     `json:"rep"`
	Seed          int64   `json:"seed"`
	DurationS     float64 `json:"duration_s"`

	scenario.Metrics

	// Status marks non-success outcomes (StatusFailed); empty — and
	// therefore omitted — on success, so fault-free JSONL is byte-stable
	// against pre-failure-protocol streams. Error is the terminal
	// failure (panic text, watchdog timeout, scenario error) and
	// Attempts how many executions were spent before quarantine. These
	// trail the struct so successful records keep their historical
	// byte layout.
	Status   string `json:"status,omitempty"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// WallMS and PeakQueue are the opt-in per-run timing breakdown
	// (ExecOptions.Timing): wall-clock milliseconds spent executing the
	// run (attempts, backoff and retries included) and the scheduler's
	// peak pending-event depth. WallMS is inherently nondeterministic,
	// which is why the fields trail the struct, are omitted when unset,
	// and are never collected by default — byte-identical JSONL across
	// worker counts, machines and restarts stays the ground rule.
	WallMS    float64 `json:"wall_ms,omitempty"`
	PeakQueue int     `json:"peak_queue,omitempty"`
}

// StatusFailed marks a run quarantined after exhausting its retries.
const StatusFailed = "failed"

// Failed reports whether the record is a quarantined failure rather
// than a measurement.
func (r Result) Failed() bool { return r.Status != "" }

// FailedResult builds the typed failure record for a run that
// exhausted its retries: the full grid coordinates and seed (so resume
// can match and re-attempt it) with zero metrics, a status, the
// terminal error, and the attempt count.
func FailedResult(r Run, err error, attempts int) Result {
	out := coordinates(r, r.Opts.WithDefaults())
	out.Status = StatusFailed
	out.Error = err.Error()
	out.Attempts = attempts
	return out
}

// ResultOf builds the record for one completed run.
func ResultOf(r Run, res scenario.Result) Result {
	out := coordinates(r, res.Opts)
	out.Metrics = res.Metrics
	out.PeakQueue = res.PeakQueue
	return out
}

// coordinates builds the grid-coordinate block every record starts
// with: key, axes, seed and horizon. o must be the defaulted options
// the scenario runs with, so a failed record names the same grid point
// as the successful record of the same run.
func coordinates(r Run, o scenario.Options) Result {
	return Result{
		Key:           r.Key,
		Variant:       r.Variant,
		Scheme:        o.Scheme.String(),
		Traffic:       o.Traffic,
		Topology:      o.Topology,
		LoadKbps:      o.OfferedLoadKbps,
		Nodes:         o.Nodes,
		SpeedMps:      o.SpeedMax,
		ShadowingDB:   o.ShadowingSigmaDB,
		SafetyFactor:  o.SafetyFactor,
		EnergyProfile: o.EnergyProfile,
		BatteryJ:      o.BatteryJ,
		Rep:           r.Rep,
		Seed:          r.Seed,
		DurationS:     o.Duration.Seconds(),
	}
}

// WriteResult appends one JSONL record to w.
func WriteResult(w io.Writer, r Result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: %w", err)
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// LoadResults parses a JSONL result stream. A malformed final line
// (e.g. a write truncated by a crash) is tolerated and dropped;
// malformed interior lines are errors.
func LoadResults(r io.Reader) ([]Result, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	out, _, err := parseResults(b)
	return out, err
}

// parseResults decodes the JSONL records in b, skipping blank lines. A
// malformed final line is tolerated: it is dropped and valid is where it
// starts (len(b) when nothing was dropped). A malformed line followed
// by a record is an error.
func parseResults(b []byte) (out []Result, valid int, err error) {
	bad, badLine := -1, 0
	for line, off := 1, 0; off < len(b); line++ {
		start, end := off, len(b)
		if i := bytes.IndexByte(b[off:], '\n'); i >= 0 {
			end = off + i
		}
		off = end + 1
		text := bytes.TrimSuffix(b[start:end], []byte("\r"))
		if len(text) == 0 {
			continue
		}
		if bad >= 0 {
			return nil, 0, fmt.Errorf("runner: malformed result line %d", badLine)
		}
		var res Result
		if json.Unmarshal(text, &res) != nil {
			bad, badLine = start, line
			continue
		}
		out = append(out, res)
	}
	if bad < 0 {
		bad = len(b)
	}
	return out, bad, nil
}

// ResumeCheckpoint prepares the JSONL checkpoint at path for appending
// and returns its resume set for ExecOptions.Completed. It reads the
// file once and truncates a torn tail — an unterminated final line or a
// malformed final record, as a crash mid-write leaves — so appended
// records start on a fresh line after the last good one. A missing file
// is an empty checkpoint. A malformed interior line is an error, and
// the file is left as it was.
func ResumeCheckpoint(path string) (map[string]Result, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	defer f.Close()
	// Checkpoint files are one short line per run; reading whole is fine.
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("runner: %w", err)
	}
	results, valid, err := parseResults(b[:bytes.LastIndexByte(b, '\n')+1])
	if err != nil {
		return nil, err
	}
	if valid < len(b) {
		if err := f.Truncate(int64(valid)); err != nil {
			return nil, fmt.Errorf("runner: %w", err)
		}
	}
	return ResumeSet(results), nil
}

// ResumeSet indexes results by run key.
func ResumeSet(results []Result) map[string]Result {
	m := make(map[string]Result, len(results))
	for _, r := range results {
		m[r.Key] = r
	}
	return m
}

// RunEvent is one emission of campaign execution: a run, its result,
// and the position in the campaign. Events are delivered in the
// campaign's deterministic run order from a single goroutine, so
// consumers (aggregators, progress bars, SSE streams) never see
// worker-count-dependent interleavings.
type RunEvent struct {
	// Run is the emitted run; Result its record.
	Run    Run
	Result Result
	// Resumed marks results satisfied from the checkpoint rather than
	// executed now (they are reported but not re-written to Out).
	Resumed bool
	// Done counts runs emitted so far, including this one; Total is the
	// campaign's run count.
	Done, Total int
}

// Progress receives execution events in campaign order. It replaces the
// old pair of ad-hoc callbacks (Progress func(done, total) and OnResult
// func(run, result)): one structured event carries the run, the result,
// whether it was resumed, and the campaign position, so a single value
// can drive a progress bar, an aggregate and a live stream at once.
type Progress interface {
	RunDone(ev RunEvent)
}

// ProgressFunc adapts a function to the Progress interface.
type ProgressFunc func(ev RunEvent)

// RunDone implements Progress.
func (f ProgressFunc) RunDone(ev RunEvent) { f(ev) }

// MultiProgress fans one event stream out to several consumers in
// order (nil entries are skipped).
func MultiProgress(ps ...Progress) Progress {
	return ProgressFunc(func(ev RunEvent) {
		for _, p := range ps {
			if p != nil {
				p.RunDone(ev)
			}
		}
	})
}

// RetryEvent reports one failed attempt that will be retried. It is
// delivered from the worker goroutine that ran the attempt — NOT in
// campaign order and NOT serialized with Progress — because a retry is
// an observability signal, not part of the deterministic result
// stream.
type RetryEvent struct {
	// Run is the run being retried; Attempt the 1-based attempt that
	// just failed; Err its failure; Backoff the sleep before the next
	// attempt.
	Run     Run
	Attempt int
	Err     error
	Backoff time.Duration
}

// ExecOptions configures Execute.
type ExecOptions struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// Out, if non-nil, receives executed results as JSONL in campaign
	// order (resumed results are not re-written).
	Out io.Writer
	// Completed holds checkpointed results by run key; matching runs are
	// skipped but still reported through Progress so aggregates include
	// them. Failed (quarantined) entries are re-attempted instead of
	// skipped unless NoRetryFailed is set.
	Completed map[string]Result
	// Progress, if non-nil, receives every emitted run (including
	// resumed ones) in campaign order, from a single goroutine.
	Progress Progress

	// RunTimeout is the per-attempt watchdog: an attempt still running
	// after this long is abandoned (its goroutine parks on a buffered
	// channel and is garbage once it returns) and counts as a failure.
	// 0 disables the watchdog — a hung run then hangs its worker.
	RunTimeout time.Duration
	// Retries is how many times a failed attempt (panic, watchdog
	// timeout, scenario error) is re-executed before the run is
	// quarantined as a typed failed Result. Retries sleep a capped
	// exponential backoff (RetryBackoff * 2^attempt, capped at
	// MaxRetryBackoff) first.
	Retries int
	// RetryBackoff is the base backoff before the first retry (default
	// DefaultRetryBackoff).
	RetryBackoff time.Duration
	// NoRetryFailed keeps checkpointed failed records as final instead
	// of re-attempting the quarantined runs on resume.
	NoRetryFailed bool
	// OnRetry, if non-nil, observes every failed attempt that will be
	// retried. Called from worker goroutines, concurrently — see
	// RetryEvent.
	OnRetry func(RetryEvent)
	// RunHook, if non-nil, runs at the start of every attempt with the
	// run's key and attempt number, inside the worker's panic-recovery
	// scope and under the watchdog. It
	// exists for deterministic fault injection (internal/fault) in
	// tests; production paths leave it nil.
	RunHook func(key string, attempt int)

	// Obs, if non-nil, receives execution telemetry: run-lifecycle
	// counters, per-run wall-time and sim-event histograms, and the
	// worker-pool occupancy gauge. Attaching it is pure observation —
	// no output byte changes (the sink-invariance test enforces this).
	Obs *obs.RunnerMetrics
	// Timing opts executed records into the per-run timing breakdown:
	// wall_ms (nondeterministic wall clock) and peak_queue (the
	// deterministic scheduler high-water mark). Off by default because
	// wall_ms breaks byte-identical JSONL across machines and reruns.
	Timing bool
}

// Retry backoff bounds: the first retry waits RetryBackoff (default
// DefaultRetryBackoff), each further retry doubles it, and no wait
// exceeds MaxRetryBackoff.
const (
	DefaultRetryBackoff = 100 * time.Millisecond
	MaxRetryBackoff     = 30 * time.Second
)

// backoffFor computes the capped exponential wait before retry n
// (1-based).
func backoffFor(base time.Duration, retry int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= MaxRetryBackoff {
			return MaxRetryBackoff
		}
	}
	if d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	return d
}

// Summary reports what Execute did.
type Summary struct {
	// Total is the campaign's run count; Executed ran now; Skipped were
	// satisfied from the checkpoint; Failed is how many runs ended
	// quarantined (their typed failure records counted by Executed or
	// Skipped like any other).
	Total, Executed, Skipped, Failed int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// Execute runs a campaign on a worker pool. Runs are independent
// simulations and execute concurrently; emission (Out, Progress) is
// re-sequenced into the campaign's deterministic run order, so the
// JSONL stream is byte-identical whether one worker ran or sixteen.
// Workers pull pending runs from one shared queue in campaign order.
//
// Runs are isolated: a panicking or (with RunTimeout) hung simulation
// never takes down the process — it is retried per Retries with capped
// exponential backoff and, if still failing, emitted as a typed failed
// Result (Status/Error/Attempts set, metrics zero) in its campaign
// position. Only infrastructure errors — checkpoint mismatches and Out
// write failures — abort execution; the first such error is returned
// after the pool drains, and nothing is emitted past it.
//
// Cancelling ctx stops dispatching new runs; simulations already in
// flight finish (a single run is not interruptible) and the pool
// drains. Emission stays a campaign-order prefix, so whatever reached
// Out is a valid checkpoint: resuming from it completes the campaign
// with a byte-identical concatenation. A cancelled Execute returns
// ctx.Err() (test with errors.Is(err, context.Canceled)).
func Execute(ctx context.Context, c Campaign, opts ExecOptions) (Summary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runs, err := c.Runs()
	if err != nil {
		return Summary{}, err
	}
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type slot struct {
		res      Result
		ready    bool
		executed bool
		err      error
	}
	slots := make([]slot, len(runs))
	var pending []Run
	keptFailed := 0
	for i, r := range runs {
		if res, ok := opts.Completed[r.Key]; ok {
			// Guard against a checkpoint from a different campaign: run
			// keys omit unswept base fields, so an edited spec (new base
			// seed, changed duration) would otherwise silently reuse
			// stale results.
			if res.Seed != r.Seed {
				return Summary{}, fmt.Errorf("runner: checkpoint entry %s has seed %d but the campaign derives %d — the spec changed; use a fresh output file", r.Key, res.Seed, r.Seed)
			}
			if d := r.Opts.Duration.Seconds(); d > 0 && math.Abs(res.DurationS-d) > 1e-9 {
				return Summary{}, fmt.Errorf("runner: checkpoint entry %s ran %gs but the campaign wants %gs — the spec changed; use a fresh output file", r.Key, res.DurationS, d)
			}
			if res.Failed() && !opts.NoRetryFailed {
				// A quarantined run is re-attempted on resume: its failed
				// record stays in the file, the fresh outcome is appended
				// after it, and ResumeSet keeps the newest per key.
				pending = append(pending, r)
				continue
			}
			if res.Failed() {
				keptFailed++
			}
			slots[i] = slot{res: res, ready: true}
		} else {
			pending = append(pending, r)
		}
	}
	sum := Summary{Total: len(runs), Skipped: len(runs) - len(pending), Failed: keptFailed}

	type outcome struct {
		idx int
		res Result
		err error
		// wall is the run's total execution time, kept off the Result so
		// histograms work without Timing opting the JSONL into wall_ms.
		wall time.Duration
	}
	outs := make(chan outcome)
	var wg sync.WaitGroup
	// attempt executes one isolated attempt: panics are recovered, and
	// with a watchdog armed a hung simulation is abandoned rather than
	// allowed to wedge the worker (the abandoned goroutine's final send
	// lands in the buffered channel and is collected when it returns).
	attempt := func(r Run, n int) (Result, error) {
		if opts.Obs != nil {
			opts.Obs.RunsStarted.Inc()
			opts.Obs.WorkersBusy.Add(1)
			defer opts.Obs.WorkersBusy.Add(-1)
		}
		if opts.Timing {
			// r is a copy; enabling the pure-observer sim sink here never
			// leaks into the campaign's run list.
			r.Opts.CollectSimStats = true
		}
		type runOut struct {
			res scenario.Result
			err error
		}
		ch := make(chan runOut, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					ch <- runOut{err: fmt.Errorf("panic: %v", p)}
				}
			}()
			if opts.RunHook != nil {
				opts.RunHook(r.Key, n)
			}
			res, err := scenario.Run(r.Opts)
			ch <- runOut{res, err}
		}()
		var watchdog <-chan time.Time
		if opts.RunTimeout > 0 {
			t := time.NewTimer(opts.RunTimeout)
			defer t.Stop()
			watchdog = t.C
		}
		select {
		case o := <-ch:
			if o.err != nil {
				return Result{}, o.err
			}
			return ResultOf(r, o.res), nil
		case <-watchdog:
			return Result{}, fmt.Errorf("run timed out after %v", opts.RunTimeout)
		}
	}
	// execute drives a run through its attempts with capped exponential
	// backoff between them. A run that exhausts its retries does not
	// abort the campaign: it becomes a typed failed Result that flows
	// through the same deterministic campaign-order emission, so one
	// poisoned grid point costs one record, not the process.
	execute := func(r Run) outcome {
		runStart := time.Now()
		var lastErr error
		for n := 0; n <= opts.Retries; n++ {
			if n > 0 {
				select {
				case <-time.After(backoffFor(opts.RetryBackoff, n)):
				case <-ctx.Done():
					// Cancelled mid-retry: surface the cancellation instead
					// of writing a spurious quarantine record — the resume
					// will re-attempt with a clean slate.
					return outcome{idx: r.Index, err: ctx.Err()}
				}
			}
			res, err := attempt(r, n)
			if err == nil {
				wall := time.Since(runStart)
				if opts.Timing {
					res.WallMS = float64(wall.Microseconds()) / 1e3
				}
				return outcome{idx: r.Index, res: res, wall: wall}
			}
			lastErr = err
			if n < opts.Retries {
				if opts.Obs != nil {
					opts.Obs.RunsRetried.Inc()
				}
				if opts.OnRetry != nil {
					opts.OnRetry(RetryEvent{Run: r, Attempt: n + 1, Err: err, Backoff: backoffFor(opts.RetryBackoff, n+1)})
				}
			}
		}
		wall := time.Since(runStart)
		res := FailedResult(r, lastErr, opts.Retries+1)
		if opts.Timing {
			res.WallMS = float64(wall.Microseconds()) / 1e3
		}
		return outcome{idx: r.Index, res: res, wall: wall}
	}
	if workers > len(pending) && len(pending) > 0 {
		workers = len(pending)
	}
	jobs := make(chan Run)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				outs <- execute(r)
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, r := range pending {
			// The explicit check matters: a ready-to-send select picks
			// randomly between its cases, so without it a cancelled
			// dispatcher could keep handing out jobs.
			if ctx.Err() != nil {
				return
			}
			select {
			case jobs <- r:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outs)
	}()

	var firstErr error
	next, done := 0, 0
	flush := func() {
		for next < len(runs) && slots[next].ready {
			s := slots[next]
			if s.err != nil && firstErr == nil {
				firstErr = s.err
			}
			if s.err == nil && firstErr == nil {
				if s.executed && opts.Out != nil {
					if werr := WriteResult(opts.Out, s.res); werr != nil {
						firstErr = werr
					}
				}
				done++
				if opts.Obs != nil {
					opts.Obs.RunsCompleted.Inc()
					if s.res.Failed() {
						opts.Obs.RunsFailed.Inc()
					}
					if !s.executed {
						opts.Obs.RunsResumed.Inc()
					}
				}
				if opts.Progress != nil {
					opts.Progress.RunDone(RunEvent{
						Run:     runs[next],
						Result:  s.res,
						Resumed: !s.executed,
						Done:    done,
						Total:   len(runs),
					})
				}
			}
			next++
		}
	}
	flush() // emit any checkpointed prefix immediately
	for o := range outs {
		if o.err != nil {
			slots[o.idx] = slot{ready: true, err: o.err}
		} else {
			slots[o.idx] = slot{res: o.res, ready: true, executed: true}
			sum.Executed++
			if o.res.Failed() {
				sum.Failed++
			}
			if opts.Obs != nil {
				opts.Obs.RunWallSeconds.Observe(o.wall.Seconds())
				if !o.res.Failed() {
					opts.Obs.RunSimEvents.Observe(float64(o.res.Events))
				}
			}
		}
		flush()
	}
	sum.Elapsed = time.Since(start)
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return sum, firstErr
}
