// The campaign-runner metric set and the build-info helper. The metric
// names here are the public telemetry contract (docs/api.md
// "Telemetry"); CI asserts against them, so renames are breaking
// changes.
package obs

import (
	"runtime"
	"runtime/debug"
)

// RunnerMetrics bundles the campaign-execution instrumentation:
// counters for run lifecycle, histograms for per-run wall time and
// simulator events, the worker-pool occupancy gauge, and the
// checkpoint-durability counters. One bundle serves a whole process —
// the daemon folds every campaign into the same set, labeling
// per-campaign state with gauges instead.
//
// All fields are plain atomics; attaching the bundle to an execution
// changes no output bytes (verified by the runner's sink-invariance
// test).
type RunnerMetrics struct {
	// RunsStarted counts attempts started, including retries.
	RunsStarted *Counter
	// RunsCompleted counts records emitted in campaign order — success
	// and quarantined-failure records alike, including checkpoint-resumed
	// replays. On a fresh campaign it equals the JSONL record count,
	// which is what CI asserts.
	RunsCompleted *Counter
	// RunsFailed counts quarantined failure records among the emissions;
	// RunsRetried counts failed attempts that were re-executed;
	// RunsResumed counts emissions satisfied from a checkpoint.
	RunsFailed  *Counter
	RunsRetried *Counter
	RunsResumed *Counter
	// RunWallSeconds observes each executed run's wall-clock duration
	// (including its retries and backoff); RunSimEvents the simulator
	// events each successful run dispatched.
	RunWallSeconds *Histogram
	RunSimEvents   *Histogram
	// WorkersBusy is the worker-pool occupancy: attempts in flight.
	WorkersBusy *Gauge
	// Checkpoint durability: records written, fsyncs issued, and
	// write/sync/close failures (degraded or aborted campaigns).
	CheckpointWrites *Counter
	CheckpointSyncs  *Counter
	CheckpointErrors *Counter
}

// NewRunnerMetrics registers the runner metric set on r.
func NewRunnerMetrics(r *Registry) *RunnerMetrics {
	return &RunnerMetrics{
		RunsStarted:   r.Counter("campaign_runs_started_total", "Run attempts started, including retries."),
		RunsCompleted: r.Counter("campaign_runs_completed_total", "Records emitted in campaign order (successes, failures, and checkpoint-resumed replays)."),
		RunsFailed:    r.Counter("campaign_runs_failed_total", "Quarantined failure records emitted."),
		RunsRetried:   r.Counter("campaign_runs_retried_total", "Failed attempts that were re-executed."),
		RunsResumed:   r.Counter("campaign_runs_resumed_total", "Emissions satisfied from a checkpoint instead of executed."),
		RunWallSeconds: r.Histogram("campaign_run_wall_seconds",
			"Wall-clock duration of each executed run, retries included.", nil),
		RunSimEvents: r.Histogram("campaign_run_sim_events",
			"Simulator events dispatched per successful run.", ExponentialBuckets(1e3, 10, 6)),
		WorkersBusy:      r.Gauge("campaign_workers_busy", "Run attempts currently in flight on the worker pool."),
		CheckpointWrites: r.Counter("campaign_checkpoint_writes_total", "Result records written to JSONL checkpoints."),
		CheckpointSyncs:  r.Counter("campaign_checkpoint_syncs_total", "Checkpoint fsyncs issued."),
		CheckpointErrors: r.Counter("campaign_checkpoint_errors_total", "Checkpoint write/sync/close failures."),
	}
}

// Build describes the running binary, for /healthz and the build-info
// metric.
type Build struct {
	// Version is the main module's version ("(devel)" for source
	// builds); Revision the VCS commit when the build recorded one.
	Version  string `json:"version"`
	Revision string `json:"revision,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go"`
}

// BuildInfo reads the binary's build information once. Missing pieces
// (tests, stripped builds) come back empty rather than failing.
func BuildInfo() Build {
	b := Build{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Version != "" {
		b.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			rev := s.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			b.Revision = rev
		}
	}
	return b
}

// RegisterBuildInfo exports the build description as the conventional
// info-style gauge: a constant 1 whose labels carry the facts.
func RegisterBuildInfo(r *Registry, b Build) {
	r.GaugeVec("campaignd_build_info", "Build information: constant 1 labeled with version, revision and Go toolchain.",
		"version", "revision", "go").With(b.Version, b.Revision, b.GoVersion).Set(1)
}
