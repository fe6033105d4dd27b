// Package serve is the campaign service: long-lived execution of
// campaign specs on runner.Execute's worker pool, per-campaign JSONL
// checkpoints, live event streaming, and an HTTP surface
// (cmd/campaignd) on top. cmd/campaign is a thin client
// of the same package — both run campaigns through RunCampaign, which
// is what makes a daemon-served results.jsonl byte-identical to the
// CLI's output for the same spec, before and after restarts.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Campaign states reported by Status.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// ErrBadSpec wraps submission failures caused by the spec itself
// (unparseable, unsupported version, invalid scenario); the HTTP layer
// maps it to 400 with the underlying message.
var ErrBadSpec = errors.New("bad campaign spec")

// ErrNotFound reports an unknown campaign ID.
var ErrNotFound = errors.New("no such campaign")

// ErrDraining reports a submission rejected because the daemon is
// shutting down; the HTTP layer maps it to 503.
var ErrDraining = errors.New("service is draining")

// RunCampaign executes c against its JSONL checkpoint at path: repair
// a torn tail left by a crash, load already-completed runs, append the
// remainder in deterministic campaign order. The daemon (one state dir
// per campaign) and cmd/campaign (the -out flag) both execute through
// this one path, so their checkpoint files are byte-identical for the
// same spec — including a daemon file assembled across restarts, since
// the appended suffix always continues the campaign-order prefix.
//
// An empty path runs without a checkpoint; resume=false truncates any
// existing file instead of resuming. Cancelling ctx stops dispatching,
// lets in-flight runs finish, and leaves the file a valid resumable
// prefix.
//
// ckpt is the durability policy; its zero value (the CLI's) fsyncs
// every DefaultSyncEvery records and at completion and returns the
// first Sync/Close failure, never silently dropping it. With a non-nil
// OnDegrade a failing disk — unopenable file, write error, sync error,
// close error — instead demotes the campaign to in-memory streaming
// (Progress keeps emitting, the callback surfaces the reason).
func RunCampaign(ctx context.Context, c runner.Campaign, path string, resume bool, opts runner.ExecOptions, ckpt CheckpointOptions) (sum runner.Summary, err error) {
	if path != "" {
		if resume {
			completed, err := runner.ResumeCheckpoint(path)
			if err != nil {
				return runner.Summary{}, err
			}
			opts.Completed = completed
		}
		mode := os.O_CREATE | os.O_WRONLY
		if resume {
			mode |= os.O_APPEND
		} else {
			mode |= os.O_TRUNC
		}
		open := ckpt.Open
		if open == nil {
			open = func(p string, flag int, perm os.FileMode) (CheckpointFile, error) {
				return os.OpenFile(p, flag, perm)
			}
		}
		f, ferr := open(path, mode, 0o644)
		switch {
		case ferr != nil && ckpt.OnDegrade != nil:
			ckpt.OnDegrade(fmt.Errorf("serve: checkpoint open: %w", ferr))
		case ferr != nil:
			return runner.Summary{}, fmt.Errorf("serve: %w", ferr)
		default:
			w := newCheckpointWriter(f, ckpt.SyncEvery, ckpt.OnDegrade, ckpt.Obs)
			defer func() {
				if cerr := w.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}()
			opts.Out = w
		}
	}
	return runner.Execute(ctx, c, opts)
}

// SpecID derives a campaign's identifier from the canonical encoding of
// its spec (version pinned, struct field order fixed). The same spec
// always maps to the same ID, so submission is idempotent and a client
// re-posting after a daemon restart reattaches to the resumed campaign
// instead of duplicating the work.
func SpecID(cf runner.CampaignFile) string {
	cf.Version = runner.SpecVersion
	b, err := json.Marshal(cf)
	if err != nil {
		// CampaignFile is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// Options configures a Service. The zero value is a working default.
type Options struct {
	// Exec is every campaign's execution and fault-tolerance policy:
	// Workers, Retries, RunTimeout, NoRetryFailed, Timing and the
	// chaos-test RunHook are passed to runner.Execute as given, so a
	// panicking or hung run is retried and quarantined as a typed
	// failed record, never allowed to kill the daemon. The service sets
	// Out, Completed, Progress, OnRetry and Obs itself. Leave Timing off
	// to keep the daemon-vs-CLI byte-identity guarantee: wall_ms makes
	// checkpoints machine-dependent.
	Exec runner.ExecOptions
	// Checkpoint is every campaign's durability policy (SyncEvery, and
	// Open as the chaos tests' fault-injection seam). The service sets
	// OnDegrade and Obs itself.
	Checkpoint CheckpointOptions
	// Registry receives the service's metrics (nil = a private one; use
	// Service.Metrics to serve it). Each Service owns its own registry
	// so several services in one process never collide.
	Registry *obs.Registry
	// Logger receives lifecycle and request logs (nil = discard).
	Logger *slog.Logger
}

// Service owns the campaigns of one daemon: submission, pooled
// execution with checkpoints under its state dir, cancellation, and
// restart recovery (NewService re-launches every persisted campaign;
// finished ones settle instantly from their checkpoints).
type Service struct {
	dir  string
	opts Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	log     *slog.Logger
	reg     *obs.Registry
	rm      *obs.RunnerMetrics
	started time.Time
	// Per-campaign gauge families, resolved to one series per campaign
	// ID at submission.
	gDone     *obs.GaugeVec
	gTotal    *obs.GaugeVec
	gFailed   *obs.GaugeVec
	gDegraded *obs.GaugeVec
	gSSE      *obs.GaugeVec

	mu       sync.Mutex
	camps    map[string]*Campaign
	order    []string
	draining bool
}

// NewService opens (or creates) the state directory and resumes every
// campaign persisted in it.
func NewService(dir string, opts Options) (*Service, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: state dir required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		dir:     dir,
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		camps:   make(map[string]*Campaign),
		log:     opts.Logger,
		reg:     opts.Registry,
		started: time.Now(),
	}
	if s.log == nil {
		s.log = obs.Discard()
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.rm = obs.NewRunnerMetrics(s.reg)
	obs.RegisterBuildInfo(s.reg, obs.BuildInfo())
	s.reg.GaugeFunc("campaignd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.gDone = s.reg.GaugeVec("campaign_done_runs", "Runs emitted so far for the campaign.", "campaign")
	s.gTotal = s.reg.GaugeVec("campaign_total_runs", "The campaign's total run count.", "campaign")
	s.gFailed = s.reg.GaugeVec("campaign_failed_runs", "Quarantined runs in the campaign so far.", "campaign")
	s.gDegraded = s.reg.GaugeVec("campaign_degraded", "1 when the campaign lost its checkpoint disk and streams in-memory.", "campaign")
	s.gSSE = s.reg.GaugeVec("campaign_sse_subscribers", "Open SSE event streams for the campaign.", "campaign")
	if err := s.resumePersisted(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// Metrics exposes the service's registry (for GET /metrics and tests).
func (s *Service) Metrics() *obs.Registry { return s.reg }

// Logger exposes the service's logger for the HTTP layer.
func (s *Service) Logger() *slog.Logger { return s.log }

// resumePersisted relaunches every campaign with a spec.json under the
// state dir. Checkpointed runs replay instantly (resumed, not
// re-executed), so a restarted daemon converges to where it was killed
// and continues. A campaign whose spec cannot be read, parsed or
// submitted is logged at error level and left on disk untouched; the
// others still resume. Only an unreadable state dir is an error.
func (s *Service) resumePersisted() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		specPath := filepath.Join(s.dir, e.Name(), "spec.json")
		b, err := os.ReadFile(specPath)
		if os.IsNotExist(err) {
			continue
		}
		var cf runner.CampaignFile
		if err == nil {
			cf, err = runner.ParseCampaignFile(b)
		}
		if err == nil {
			_, _, err = s.Submit(cf)
		}
		if err != nil {
			s.log.Error("stored campaign not resumed", "spec", specPath, "err", err)
		}
	}
	return nil
}

// Submit validates and launches a campaign; created reports whether it
// was new (false: an identical spec is already known and the existing
// campaign is returned — submission is idempotent). A draining service
// rejects new specs with ErrDraining but still reattaches to known
// ones.
func (s *Service) Submit(cf runner.CampaignFile) (c *Campaign, created bool, err error) {
	cf.Version = runner.SpecVersion
	camp, err := cf.Campaign()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	runs, err := camp.Runs()
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	id := SpecID(cf)

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.camps[id]; ok {
		return existing, false, nil
	}
	if s.draining {
		return nil, false, ErrDraining
	}
	cdir := filepath.Join(s.dir, id)
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	spec, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return nil, false, fmt.Errorf("serve: %w", err)
	}
	// Atomic write: a daemon killed mid-submit must never leave a
	// torn spec.json that would poison restart recovery.
	if err := WriteFileAtomic(filepath.Join(cdir, "spec.json"), append(spec, '\n'), 0o644); err != nil {
		return nil, false, err
	}
	c = &Campaign{
		id:      id,
		spec:    cf,
		camp:    camp,
		total:   len(runs),
		dir:     cdir,
		state:   StateRunning,
		started: time.Now(),
		agg:     runner.NewAggregate(),
		hub:     newHub(),
		done:    make(chan struct{}),
		log:     s.log.With("campaign", id),
		gDone:   s.gDone.With(id),
		gFailed: s.gFailed.With(id),
		gDegr:   s.gDegraded.With(id),
		gSSE:    s.gSSE.With(id),
	}
	s.gTotal.With(id).Set(float64(len(runs)))
	s.camps[id] = c
	s.order = append(s.order, id)
	s.launch(c)
	c.log.Info("campaign submitted", "name", camp.Name, "runs", len(runs))
	return c, true, nil
}

// launch starts the campaign's executor goroutine. Caller holds s.mu.
func (s *Service) launch(c *Campaign) {
	ctx, cancel := context.WithCancel(s.ctx)
	c.cancel = cancel
	exec := s.opts.Exec
	exec.Out, exec.Completed = nil, nil
	exec.Progress, exec.OnRetry, exec.Obs = c, c.onRetry, s.rm
	ckpt := s.opts.Checkpoint
	ckpt.OnDegrade, ckpt.Obs = c.onDegrade, s.rm
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		sum, err := RunCampaign(ctx, c.camp, c.ResultsPath(), true, exec, ckpt)
		c.finish(sum, err)
	}()
}

// Get returns a campaign by ID.
func (s *Service) Get(id string) (*Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.camps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return c, nil
}

// List returns the campaigns in submission order.
func (s *Service) List() []*Campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.camps[id])
	}
	return out
}

// StartDrain flips the service into drain mode: new spec submissions
// are rejected with ErrDraining (known specs still reattach), the
// health endpoint reports draining, and running campaigns keep going
// until Close. Idempotent. The daemon calls it on SIGTERM so an
// orchestrator's rolling restart stops feeding a dying instance before
// its checkpoints settle.
func (s *Service) StartDrain() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	camps := make([]*Campaign, 0, len(s.camps))
	for _, c := range s.camps {
		camps = append(camps, c)
	}
	s.mu.Unlock()
	if already {
		return
	}
	running := 0
	for _, c := range camps {
		if c.Status().State == StateRunning {
			running++
		}
	}
	s.log.Info("draining: rejecting new specs until running campaigns settle", "running", running)
}

// Health is the service-level health snapshot served by /healthz.
type Health struct {
	// Status is "ok", "degraded" (≥1 campaign lost its checkpoint disk
	// and is streaming in-memory), or "draining" (shutdown under way).
	Status string `json:"status"`
	// Campaigns counts all known campaigns; Running the currently
	// executing ones.
	Campaigns int `json:"campaigns"`
	Running   int `json:"running"`
	// FailedRuns totals quarantined runs across campaigns; Degraded
	// counts campaigns in degraded (checkpoint-less) mode.
	FailedRuns int `json:"failed_runs,omitempty"`
	Degraded   int `json:"degraded,omitempty"`
	// UptimeS is seconds since the service started; Build describes the
	// binary (also exported as the campaignd_build_info metric).
	UptimeS float64   `json:"uptime_s"`
	Build   obs.Build `json:"build"`
}

// Health snapshots service health across all campaigns.
func (s *Service) Health() Health {
	s.mu.Lock()
	camps := make([]*Campaign, 0, len(s.order))
	for _, id := range s.order {
		camps = append(camps, s.camps[id])
	}
	draining := s.draining
	s.mu.Unlock()

	h := Health{
		Status:    "ok",
		Campaigns: len(camps),
		UptimeS:   time.Since(s.started).Seconds(),
		Build:     obs.BuildInfo(),
	}
	for _, c := range camps {
		st := c.Status()
		if st.State == StateRunning {
			h.Running++
		}
		h.FailedRuns += st.Failed
		if st.Degraded {
			h.Degraded++
		}
	}
	if h.Degraded > 0 {
		h.Status = "degraded"
	}
	if draining {
		h.Status = "draining"
	}
	return h
}

// Close cancels every campaign and waits for their executors to drain,
// leaving all checkpoints valid. The graceful-shutdown path of the
// daemon.
func (s *Service) Close() {
	s.cancel()
	s.wg.Wait()
}

// Campaign is one submitted campaign's lifecycle: executor state,
// aggregate, and event stream.
type Campaign struct {
	id    string
	spec  runner.CampaignFile
	camp  runner.Campaign
	total int
	dir   string

	cancel context.CancelFunc
	done   chan struct{}
	hub    *hub

	log *slog.Logger
	// Resolved per-campaign gauge series (label: campaign ID); gSSE is
	// driven by the HTTP event-stream handler.
	gDone   *obs.Gauge
	gFailed *obs.Gauge
	gDegr   *obs.Gauge
	gSSE    *obs.Gauge

	mu          sync.Mutex
	state       string
	doneRuns    int
	executed    int
	resumed     int
	failed      int
	retried     int
	degraded    bool
	degradedErr string
	errMsg      string
	started     time.Time
	elapsed     time.Duration
	agg         *runner.Aggregate
}

// Status is the JSON status of one campaign.
type Status struct {
	ID       string  `json:"id"`
	Name     string  `json:"name"`
	State    string  `json:"state"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Executed int     `json:"executed"`
	Resumed  int     `json:"resumed"`
	ElapsedS float64 `json:"elapsed_s"`
	Error    string  `json:"error,omitempty"`
	// Failed counts quarantined runs (typed failure records in the
	// stream); Retried counts failed attempts that were re-executed.
	Failed  int `json:"failed,omitempty"`
	Retried int `json:"retried,omitempty"`
	// Degraded reports checkpoint-less in-memory streaming after a
	// disk failure; DegradedError is the failure that caused it.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedError string `json:"degraded_error,omitempty"`
}

// resultEvent is the payload of an SSE "result" event — and of a
// "run_failed" event, whose Result is the typed quarantine record.
type resultEvent struct {
	Done    int           `json:"done"`
	Total   int           `json:"total"`
	Resumed bool          `json:"resumed,omitempty"`
	Result  runner.Result `json:"result"`
}

// retryEvent is the payload of an SSE "run_retried" event. Retries are
// reported from worker goroutines as they happen, so — unlike result
// events — their interleaving with the ordered stream is timing-
// dependent.
type retryEvent struct {
	Key      string  `json:"key"`
	Attempt  int     `json:"attempt"`
	Error    string  `json:"error"`
	BackoffS float64 `json:"backoff_s"`
}

// degradedEvent is the payload of an SSE "degraded" event.
type degradedEvent struct {
	Error string `json:"error"`
}

// doneEvent is the payload of the final SSE "done" event.
type doneEvent struct {
	State    string  `json:"state"`
	Executed int     `json:"executed"`
	Resumed  int     `json:"resumed"`
	Failed   int     `json:"failed,omitempty"`
	Retried  int     `json:"retried,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	ElapsedS float64 `json:"elapsed_s"`
	Error    string  `json:"error,omitempty"`
}

// aggregateEvent carries the current aggregate table as CSV text.
type aggregateEvent struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	CSV   string `json:"csv"`
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Spec returns the normalized spec the campaign was created from.
func (c *Campaign) Spec() runner.CampaignFile { return c.spec }

// ResultsPath is the campaign's JSONL checkpoint file.
func (c *Campaign) ResultsPath() string { return filepath.Join(c.dir, "results.jsonl") }

// Done is closed when the campaign's executor exits.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Status snapshots the campaign.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	elapsed := c.elapsed
	if c.state == StateRunning {
		elapsed = time.Since(c.started)
	}
	return Status{
		ID:            c.id,
		Name:          c.camp.Name,
		State:         c.state,
		Done:          c.doneRuns,
		Total:         c.total,
		Executed:      c.executed,
		Resumed:       c.resumed,
		ElapsedS:      elapsed.Seconds(),
		Error:         c.errMsg,
		Failed:        c.failed,
		Retried:       c.retried,
		Degraded:      c.degraded,
		DegradedError: c.degradedErr,
	}
}

// Subscribe attaches to the campaign's event stream: the log so far
// plus live events until the campaign finishes or cancel is called.
func (c *Campaign) Subscribe() (history []Event, live <-chan Event, cancel func()) {
	return c.hub.subscribe()
}

// AggregateCSV renders the current aggregate table.
func (c *Campaign) AggregateCSV() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aggregateCSVLocked()
}

func (c *Campaign) aggregateCSVLocked() (string, error) {
	var sb strings.Builder
	if err := c.agg.WriteCSV(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// AggregatePoints snapshots the aggregate's grid points (for the
// dashboard's server-rendered table).
func (c *Campaign) AggregatePoints() []*runner.Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agg.Points()
}

// RunDone implements runner.Progress: it is called in campaign order
// from the executor's emission goroutine, folds the result into the
// aggregate and publishes the matching SSE events. Quarantined runs
// publish "run_failed" instead of "result" — failure is a first-class
// frame in the stream, not a dropped position.
func (c *Campaign) RunDone(ev runner.RunEvent) {
	c.gDone.Set(float64(ev.Done))
	c.mu.Lock()
	c.doneRuns = ev.Done
	if ev.Resumed {
		c.resumed++
	} else {
		c.executed++
	}
	if ev.Result.Failed() {
		c.failed++
		c.gFailed.Set(float64(c.failed))
	}
	c.agg.Add(ev.Run, ev.Result)
	// Publish a refreshed aggregate table roughly every decile of a
	// large campaign (the final table comes with finish()); the
	// positions depend only on Done/Total, so the event sequence is as
	// deterministic as the result stream itself.
	step := ev.Total / 10
	publishAgg := step > 0 && ev.Done%step == 0 && ev.Done < ev.Total
	var csv string
	if publishAgg {
		csv, _ = c.aggregateCSVLocked()
	}
	c.mu.Unlock()

	typ := "result"
	if ev.Result.Failed() {
		typ = "run_failed"
	}
	c.hub.publish(typ, resultEvent{Done: ev.Done, Total: ev.Total, Resumed: ev.Resumed, Result: ev.Result})
	if publishAgg {
		c.hub.publish("aggregate", aggregateEvent{Done: ev.Done, Total: ev.Total, CSV: csv})
	}
}

// onRetry observes a failed attempt scheduled for re-execution
// (runner.ExecOptions.OnRetry): count it and surface it as a
// "run_retried" SSE event. Called from worker goroutines; the hub
// serializes publication.
func (c *Campaign) onRetry(ev runner.RetryEvent) {
	c.mu.Lock()
	c.retried++
	c.mu.Unlock()
	c.log.Warn("run retried", "key", ev.Run.Key, "attempt", ev.Attempt, "err", ev.Err, "backoff", ev.Backoff)
	c.hub.publish("run_retried", retryEvent{
		Key:      ev.Run.Key,
		Attempt:  ev.Attempt,
		Error:    ev.Err.Error(),
		BackoffS: ev.Backoff.Seconds(),
	})
}

// onDegrade marks the campaign degraded after a checkpoint-disk
// failure (CheckpointOptions.OnDegrade): execution continues with
// in-memory streaming only, and the state is surfaced in the status
// and as a "degraded" SSE event instead of crashing the daemon.
func (c *Campaign) onDegrade(err error) {
	c.mu.Lock()
	already := c.degraded
	c.degraded = true
	c.degradedErr = err.Error()
	c.mu.Unlock()
	if !already {
		c.gDegr.Set(1)
		c.log.Error("checkpoint degraded to in-memory streaming", "err", err)
		c.hub.publish("degraded", degradedEvent{Error: err.Error()})
	}
}

// finish records the executor's outcome and closes the event stream.
func (c *Campaign) finish(sum runner.Summary, err error) {
	c.mu.Lock()
	c.elapsed = sum.Elapsed
	switch {
	case err == nil:
		c.state = StateDone
	case errors.Is(err, context.Canceled):
		c.state = StateCanceled
	default:
		c.state = StateFailed
		c.errMsg = err.Error()
	}
	st := c.state
	doneRuns, total := c.doneRuns, c.total
	executed, resumed := c.executed, c.resumed
	failed, retried, degraded := c.failed, c.retried, c.degraded
	errMsg := c.errMsg
	csv, _ := c.aggregateCSVLocked()
	c.mu.Unlock()

	switch st {
	case StateDone:
		c.log.Info("campaign finished", "executed", executed, "resumed", resumed, "failed", failed, "elapsed_s", sum.Elapsed.Seconds())
	case StateCanceled:
		c.log.Info("campaign canceled", "done", doneRuns, "total", total)
	default:
		c.log.Error("campaign failed", "err", errMsg, "done", doneRuns, "total", total)
	}

	c.hub.publish("aggregate", aggregateEvent{Done: doneRuns, Total: total, CSV: csv})
	c.hub.publish("done", doneEvent{
		State: st, Executed: executed, Resumed: resumed,
		Failed: failed, Retried: retried, Degraded: degraded,
		ElapsedS: sum.Elapsed.Seconds(), Error: errMsg,
	})
	c.hub.close()
	close(c.done)
}
