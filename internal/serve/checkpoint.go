// Durable checkpoint plumbing: atomic state-file writes (temp file +
// rename, so a crash can never leave a half-written spec.json), a
// results.jsonl writer that fsyncs on a record interval and at
// completion and propagates Close/Sync errors instead of dropping
// them, and a degraded mode where a dying disk demotes the checkpoint
// to in-memory streaming instead of killing the campaign.
package serve

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// DefaultSyncEvery is how many result records land between fsyncs of
// the checkpoint file when CheckpointOptions.SyncEvery is zero. A
// crash loses at most this many records — and they are re-executed on
// resume, so the cost is time, never data.
const DefaultSyncEvery = 64

// CheckpointFile is what a checkpoint writer needs from the file
// behind it. *os.File satisfies it; tests substitute a fault-injecting
// implementation (internal/fault.Writer) through
// CheckpointOptions.Open.
type CheckpointFile interface {
	io.Writer
	Sync() error
	Close() error
}

// CheckpointOptions tunes checkpoint durability for RunCampaign.
type CheckpointOptions struct {
	// SyncEvery fsyncs the checkpoint every N records (0 =
	// DefaultSyncEvery, negative = only at completion).
	SyncEvery int
	// OnDegrade, when non-nil, turns checkpoint write/sync/close
	// failures into degraded mode: the callback fires once with the
	// first error, the file is abandoned, and execution continues with
	// results streaming through Progress only. When nil, the first
	// checkpoint error aborts execution (the CLI's fail-fast behavior).
	OnDegrade func(error)
	// Open replaces os.OpenFile for the checkpoint (test seam for
	// fault injection).
	Open func(path string, flag int, perm os.FileMode) (CheckpointFile, error)
	// Obs, if non-nil, counts checkpoint records written, fsyncs issued
	// and durability errors on its Checkpoint* counters.
	Obs *obs.RunnerMetrics
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, and rename, so any crash — mid-write, mid-sync, mid-rename —
// leaves either the old complete file or the new complete file, never
// a torn hybrid that would block restart recovery.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: %w", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// checkpointWriter wraps the checkpoint file with interval fsyncs and
// the degrade-instead-of-crash policy. Each Write is one JSONL record
// (runner.WriteResult emits record-at-a-time), so counting writes
// counts records.
type checkpointWriter struct {
	f         CheckpointFile
	every     int // records per fsync; <=0 = only at close
	onDegrade func(error)
	obs       *obs.RunnerMetrics
	records   int
	degraded  bool
}

func newCheckpointWriter(f CheckpointFile, syncEvery int, onDegrade func(error), m *obs.RunnerMetrics) *checkpointWriter {
	if syncEvery == 0 {
		syncEvery = DefaultSyncEvery
	}
	return &checkpointWriter{f: f, every: syncEvery, onDegrade: onDegrade, obs: m}
}

// fail applies the degradation policy to a durability error: in
// degraded mode the writer swallows it (reporting full writes) so the
// campaign keeps streaming; in strict mode it surfaces and aborts
// execution.
func (w *checkpointWriter) fail(want, n int, err error) (int, error) {
	if w.obs != nil {
		w.obs.CheckpointErrors.Inc()
	}
	if w.onDegrade != nil {
		w.degraded = true
		w.onDegrade(err)
		return want, nil
	}
	return n, err
}

// Write implements io.Writer for runner.Execute's Out.
func (w *checkpointWriter) Write(p []byte) (int, error) {
	if w.degraded {
		return len(p), nil
	}
	n, err := w.f.Write(p)
	if err != nil {
		return w.fail(len(p), n, fmt.Errorf("serve: checkpoint write: %w", err))
	}
	w.records++
	if w.obs != nil {
		w.obs.CheckpointWrites.Inc()
	}
	if w.every > 0 && w.records%w.every == 0 {
		if err := w.f.Sync(); err != nil {
			return w.fail(len(p), n, fmt.Errorf("serve: checkpoint sync: %w", err))
		}
		if w.obs != nil {
			w.obs.CheckpointSyncs.Inc()
		}
	}
	return n, nil
}

// Close syncs and closes the checkpoint, reporting — not dropping —
// whichever error happens first. A degraded writer just releases the
// file descriptor: its durability failure was already surfaced.
func (w *checkpointWriter) Close() error {
	if w.degraded {
		_ = w.f.Close()
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if w.obs != nil {
			w.obs.CheckpointSyncs.Inc()
		}
		return nil
	}
	err = fmt.Errorf("serve: checkpoint close: %w", err)
	if w.obs != nil {
		w.obs.CheckpointErrors.Inc()
	}
	if w.onDegrade != nil {
		w.degraded = true
		w.onDegrade(err)
		return nil
	}
	return err
}
