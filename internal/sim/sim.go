// Package sim provides the discrete-event simulation kernel that every
// other subsystem in this repository runs on. It plays the role ns-2's
// event scheduler played for the paper: a single logical clock, a
// time-ordered pending-event set, and cancellable timers.
//
// The kernel is deliberately single-threaded: wireless MAC protocols are
// full of same-instant orderings (a CTS scheduled exactly SIFS after an
// RTS, a NAV expiring exactly when a backoff resumes) and reproducibility
// of those orderings matters more than parallel speed at the 50-node
// scale of the paper. Determinism is guaranteed by breaking time ties
// with a monotonically increasing sequence number, so two runs with the
// same seed execute the same event trace.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation time in nanoseconds since the start of
// the run. int64 nanoseconds keep every 802.11 interval (microsecond
// granularity) exact and make event ordering total, which floating-point
// seconds (as in ns-2) do not.
type Time int64

// Duration is a span of simulation time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants so call sites
// read naturally (sim.Microsecond etc.) without importing package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation instant.
const MaxTime = Time(math.MaxInt64)

// Seconds converts a duration to floating-point seconds (for reporting).
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds converts a duration to floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds converts an absolute time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// DurationOf converts floating-point seconds into a Duration, rounding to
// the nearest nanosecond. It is the bridge for rate computations
// (bits/bandwidth) that are naturally floating point.
func DurationOf(seconds float64) Duration {
	return Duration(math.Round(seconds * float64(Second)))
}

// Event is a pending callback in the scheduler. The zero Event is
// meaningless; events are created by Scheduler.Schedule/At.
//
// Lifecycle contract: handles returned by Schedule/At stay valid
// indefinitely — a fired or cancelled event is inert (Pending reports
// false, Cancel is a no-op) and is never recycled, so callers may retain
// and cancel handles unconditionally. Events created through the pooled
// paths (ScheduleEvent, Timer) return to the scheduler's free list the
// moment they fire or are cancelled; no handle to them ever escapes, so
// no caller can observe the reuse.
type Event struct {
	at     Time
	seq    uint64
	index  int   // absolute slot in its calendar bucket's items (or the ladder); -1 when not queued
	bucket int32 // calendar bucket number (ladderBucket for the overflow ladder)
	fn     func()

	// Typed no-capture form: when h is non-nil the event dispatches
	// h.HandleEvent(kind, arg, x) instead of fn. The three payload slots
	// cover the hot paths (phys arrivals carry radio/tx/power) without a
	// closure allocation per event.
	h    EventHandler
	kind int32
	arg  any
	x    float64

	// pooled events are owned by the scheduler (or, transiently, a
	// Timer) and return to the free list on fire/cancel.
	pooled bool
}

// EventHandler receives typed events scheduled with ScheduleEvent. The
// (kind, arg, x) triple is whatever the scheduling site passed; the
// handler dispatches on kind.
type EventHandler interface {
	HandleEvent(kind int32, arg any, x float64)
}

// At reports when the event will fire.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued (not yet fired and
// not cancelled).
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// Scheduler is the discrete-event executive. It is not safe for
// concurrent use; the whole simulation runs on one goroutine.
type Scheduler struct {
	now     Time
	seq     uint64
	q       eventQueue
	stopped bool

	// free is the event free list. Only pooled events (typed events and
	// Timer events, whose handles never escape their owner) are
	// recycled; plain Schedule/At events are not, preserving the
	// retain-and-cancel-unconditionally contract on their handles.
	free []*Event

	// Executed counts events that have fired, for diagnostics and for
	// runaway detection in tests.
	executed uint64

	// Peak pending-depth tracking (TrackDepth): off by default so the
	// push hot paths pay nothing but an untaken branch; a pure observer
	// either way — it never touches event order, time, or RNG streams.
	trackDepth  bool
	peakPending int
}

// NewScheduler returns a scheduler with the clock at zero, backed by
// the calendar event queue.
func NewScheduler() *Scheduler { return &Scheduler{q: newCalendarQueue()} }

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Executed returns how many events have fired so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending returns the number of events currently queued.
func (s *Scheduler) Pending() int { return s.q.len() }

// TrackDepth enables (or disables) peak pending-depth tracking. It is
// off by default: with it off the schedule paths pay a single untaken
// branch, and with it on they only fold the queue length into a
// maximum — a pure observation that cannot perturb event order, so
// runs are byte-identical either way (the scenario sim-stats soundness
// tests diff whole runs to prove it).
func (s *Scheduler) TrackDepth(on bool) {
	s.trackDepth = on
	if on && s.q.len() > s.peakPending {
		s.peakPending = s.q.len()
	}
}

// PeakPending reports the deepest the pending-event set has been while
// depth tracking was enabled (0 if it never was). The calendar queue's
// sizing is judged against this number.
func (s *Scheduler) PeakPending() int { return s.peakPending }

// notePush folds the post-push queue depth into the tracked peak.
func (s *Scheduler) notePush() {
	if s.trackDepth {
		if n := s.q.len(); n > s.peakPending {
			s.peakPending = n
		}
	}
}

// Schedule queues fn to run d after the current time and returns the
// event handle, which may be cancelled. Negative d panics: the kernel
// never travels backwards.
func (s *Scheduler) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now.Add(d), fn)
}

// At queues fn to run at absolute time t (which must not be in the past)
// and returns the event handle.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", s.now, t))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := &Event{at: t, seq: s.seq, fn: fn, index: -1}
	s.seq++
	s.q.push(e)
	s.notePush()
	return e
}

// ScheduleEvent queues a typed, fire-and-forget event d after the current
// time: when it fires, h.HandleEvent(kind, arg, x) runs. No handle is
// returned — the event cannot be cancelled — which is what lets the
// scheduler recycle its Event struct through the free list the moment it
// fires. This is the allocation-free path the physical layer's arrival
// events use; after warm-up it performs no heap allocation per call.
func (s *Scheduler) ScheduleEvent(d Duration, h EventHandler, kind int32, arg any, x float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	e := s.acquire()
	e.at = s.now.Add(d)
	e.h = h
	e.kind = kind
	e.arg = arg
	e.x = x
	e.seq = s.seq
	s.seq++
	s.q.push(e)
	s.notePush()
}

// scheduleOwned queues a pooled typed event and returns its handle to an
// in-package owner (Timer). The owner must be the handle's only holder
// and must discard it on fire (before the callback runs) or return it
// via cancelOwned, upholding the free-list invariant.
func (s *Scheduler) scheduleOwned(t Time, h EventHandler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", s.now, t))
	}
	e := s.acquire()
	e.at = t
	e.h = h
	e.seq = s.seq
	s.seq++
	s.q.push(e)
	s.notePush()
	return e
}

// acquire takes an Event from the free list (or allocates one) and marks
// it pooled.
func (s *Scheduler) acquire() *Event {
	n := len(s.free)
	if n == 0 {
		return &Event{index: -1, pooled: true}
	}
	e := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	return e
}

// release returns a pooled event to the free list, dropping payload
// references so the pool does not retain garbage.
func (s *Scheduler) release(e *Event) {
	e.fn = nil
	e.h = nil
	e.arg = nil
	e.x = 0
	e.kind = 0
	s.free = append(s.free, e)
}

// Cancel removes a pending event. Cancelling a nil, fired, or already
// cancelled event is a no-op, so callers can cancel unconditionally.
// Cancelled Schedule/At events are not recycled: their handle stays
// valid (and inert) for as long as the caller retains it.
//
// Pooled events (ScheduleEvent, Timer internals) return to the free
// list the moment they fire, so by the time any code could call Cancel
// on one it is already off the queue: index is negative and the call is
// the same explicit no-op. This holds even if the struct has since been
// re-armed under a new identity — no handle to a pooled event survives
// outside its owner, so a stale pointer can never name a queued event.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.q.remove(e)
}

// cancelOwned cancels a pooled event on behalf of its sole owner and
// returns the struct to the free list.
func (s *Scheduler) cancelOwned(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	s.q.remove(e)
	s.release(e)
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (s *Scheduler) Step() bool {
	e := s.q.popMin()
	if e == nil {
		return false
	}
	s.now = e.at
	s.executed++
	if e.h != nil {
		h, kind, arg, x := e.h, e.kind, e.arg, e.x
		if e.pooled {
			// Recycle before dispatch: the callback may schedule new
			// events and can reuse this struct immediately. No handle to
			// a pooled event survives outside its owner, and Timer (the
			// one owner that holds handles) drops its handle before the
			// callback observes it, so the reuse is unobservable.
			s.release(e)
		}
		h.HandleEvent(kind, arg, x)
		return true
	}
	// Closure events are never pooled (their handles escape via
	// Schedule/At), so the struct is simply abandoned to the GC.
	e.fn()
	return true
}

// Run executes events in time order until the queue drains, until an
// event fires at a time strictly after horizon, or until Stop is called.
// The clock is left at min(horizon, last event time); events beyond the
// horizon stay queued.
func (s *Scheduler) Run(horizon Time) {
	s.stopped = false
	for !s.stopped {
		e := s.q.peekMin()
		if e == nil || e.at > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon && !s.stopped {
		s.now = horizon
	}
}

// RunAll executes events until the queue is empty or Stop is called.
func (s *Scheduler) RunAll() {
	s.stopped = false
	for s.q.len() > 0 && !s.stopped {
		s.Step()
	}
}

// Stop makes the current Run/RunAll return after the executing event
// completes. Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Timer is a restartable single-shot timer bound to a scheduler, the
// workhorse of MAC state machines (CTS timeouts, NAV expiry, backoff
// slots). Unlike raw events a Timer can be reused: Start after Stop or
// after expiry re-arms it.
//
// Timers ride the scheduler's event free list: arming one allocates
// nothing after warm-up, because the timer is the sole holder of its
// event handle and returns the struct to the pool on expiry or Stop.
type Timer struct {
	s  *Scheduler
	ev *Event
	fn func()
}

// NewTimer returns a stopped timer that runs fn on expiry.
func NewTimer(s *Scheduler, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil timer function")
	}
	return &Timer{s: s, fn: fn}
}

// HandleEvent implements EventHandler for the timer's own pooled event.
// Not intended to be called directly.
func (t *Timer) HandleEvent(int32, any, float64) {
	// Drop the handle before running fn: the scheduler has already
	// recycled the event, and fn may re-arm the timer.
	t.ev = nil
	t.fn()
}

// Start arms the timer to fire d from now, replacing any previous
// schedule.
func (t *Timer) Start(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	t.StartAt(t.s.now.Add(d))
}

// StartAt arms the timer to fire at absolute time at, replacing any
// previous schedule.
func (t *Timer) StartAt(at Time) {
	t.Stop()
	t.ev = t.s.scheduleOwned(at, t)
}

// Stop disarms the timer. Stopping an idle timer is a no-op.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.s.cancelOwned(t.ev)
		t.ev = nil
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev != nil && t.ev.Pending() }

// Deadline returns the expiry instant of an armed timer; calling it on an
// idle timer panics (it has no deadline).
func (t *Timer) Deadline() Time {
	if !t.Pending() {
		panic("sim: Deadline on idle timer")
	}
	return t.ev.At()
}

// Remaining returns how long until an armed timer fires.
func (t *Timer) Remaining() Duration {
	return t.Deadline().Sub(t.s.Now())
}
