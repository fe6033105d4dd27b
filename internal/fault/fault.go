// Package fault makes failure deterministic: a seed-derived injector
// (the same FNV-1a + splitmix64 discipline as runner seed derivation)
// whose every decision is a pure function of the seed and a label, so
// a chaos test that panics, hangs, or tears a write does so at exactly
// the same points on every execution. The package is dependency-free —
// the runner and serve layers expose hooks (runner.ExecOptions.RunHook,
// serve.CheckpointOptions.Open) and tests wire an Injector into them;
// production builds never import it.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"
)

// ErrInjected marks every error this package fabricates, so tests can
// errors.Is-match a failure back to its injection site.
var ErrInjected = errors.New("fault: injected error")

// ErrNoSpace is the injected analogue of ENOSPC: the device behind a
// writer has no room left.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// Injector derives deterministic fault decisions from a seed. Distinct
// label tuples get decorrelated streams; the same (seed, labels) always
// yields the same decision, across processes and platforms.
type Injector struct {
	seed uint64
}

// New creates an injector for a seed.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed)}
}

// Uint64 returns the decision word for a label tuple: FNV-1a over the
// labels mixed with the seed through a splitmix64 finalizer.
func (in *Injector) Uint64(labels ...string) uint64 {
	h := fnv.New64a()
	for _, l := range labels {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	x := h.Sum64() + in.seed*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Float64 maps a label tuple to [0, 1).
func (in *Injector) Float64(labels ...string) float64 {
	return float64(in.Uint64(labels...)>>11) / (1 << 53)
}

// Chance reports whether the labelled decision falls under probability
// p. Deterministic: the same labels answer the same way every time.
func (in *Injector) Chance(p float64, labels ...string) bool {
	return in.Float64(labels...) < p
}

// Intn maps a label tuple to [0, n).
func (in *Injector) Intn(n int, labels ...string) int {
	if n <= 0 {
		return 0
	}
	return int(in.Uint64(labels...) % uint64(n))
}

// RunFaults plans per-run fault injection for the runner's RunHook: a
// slice of runs panic, another slice hangs, both chosen by run key.
// Faults are transient by default — only the first attempt of a run is
// sabotaged, so a retry succeeds and the campaign's final output is
// byte-identical to a fault-free one. Permanent makes every attempt
// fail, driving a run into quarantine.
type RunFaults struct {
	// PanicP is the probability a run's sabotaged attempt panics.
	PanicP float64
	// HangP is the probability a sabotaged attempt hangs for Hang
	// (stacked after PanicP: a run panics, hangs, or does neither).
	HangP float64
	// Hang is the hang duration; pick it well above the runner's
	// RunTimeout so the watchdog is what ends the attempt.
	Hang time.Duration
	// Permanent sabotages every attempt, not just the first.
	Permanent bool
}

// RunHook builds a runner-compatible hook (key, attempt) that injects
// the planned faults. The decision is keyed on the run key alone, so
// whether a run is faulty is independent of attempt numbering — only
// Permanent controls whether retries see the fault again.
func (in *Injector) RunHook(f RunFaults) func(key string, attempt int) {
	return func(key string, attempt int) {
		if attempt > 0 && !f.Permanent {
			return
		}
		u := in.Float64("run", key)
		switch {
		case u < f.PanicP:
			panic(fmt.Sprintf("fault: injected panic (key=%s attempt=%d)", key, attempt))
		case u < f.PanicP+f.HangP:
			time.Sleep(f.Hang)
		}
	}
}

// WriterFaults plans fault injection for a Writer.
type WriterFaults struct {
	// FailAfterBytes makes every write past the first N accepted bytes
	// fail with ErrNoSpace (0 = never). The failing write itself is
	// written up to the boundary, like a real full disk.
	FailAfterBytes int64
	// ShortWriteP is the per-write probability of a short write: only
	// half the buffer lands and the write errors with ErrInjected.
	ShortWriteP float64
	// FailSyncAfter makes the Nth and later Sync calls fail (0 = never;
	// 1 = every Sync).
	FailSyncAfter int
	// FailClose makes Close report an error after closing the
	// underlying writer.
	FailClose bool
}

// Writer wraps an io.Writer with deterministic write, sync, and close
// faults — a stand-in for a dying disk. Short-write decisions derive
// from the injector and the write sequence number, so a replayed byte
// stream fails identically.
type Writer struct {
	in     *Injector
	w      io.Writer
	f      WriterFaults
	writes int
	syncs  int
	wrote  int64
}

// Writer builds a faulty writer over w.
func (in *Injector) Writer(w io.Writer, f WriterFaults) *Writer {
	return &Writer{in: in, w: w, f: f}
}

// Write implements io.Writer with the planned faults.
func (w *Writer) Write(p []byte) (int, error) {
	w.writes++
	if w.f.FailAfterBytes > 0 && w.wrote+int64(len(p)) > w.f.FailAfterBytes {
		room := w.f.FailAfterBytes - w.wrote
		if room < 0 {
			room = 0
		}
		n, _ := w.w.Write(p[:room])
		w.wrote += int64(n)
		return n, ErrNoSpace
	}
	if w.f.ShortWriteP > 0 && w.in.Chance(w.f.ShortWriteP, "write", fmt.Sprint(w.writes)) {
		n, err := w.w.Write(p[:len(p)/2])
		w.wrote += int64(n)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	n, err := w.w.Write(p)
	w.wrote += int64(n)
	return n, err
}

// Sync fails from the FailSyncAfter-th call on; otherwise it delegates
// when the underlying writer has a Sync method and is a no-op when not.
func (w *Writer) Sync() error {
	w.syncs++
	if w.f.FailSyncAfter > 0 && w.syncs >= w.f.FailSyncAfter {
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	if s, ok := w.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close closes the underlying writer when it is a Closer, then reports
// the planned close fault.
func (w *Writer) Close() error {
	var err error
	if c, ok := w.w.(io.Closer); ok {
		err = c.Close()
	}
	if w.f.FailClose {
		return fmt.Errorf("%w: close failed", ErrInjected)
	}
	return err
}
