// Package sim provides the discrete-event simulation kernel that every
// other subsystem in this repository runs on. It plays the role ns-2's
// event scheduler played for the paper: a single logical clock, a
// time-ordered pending-event set, and restartable timers.
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

// Event is a pending callback in the scheduler. Every event is owned by
// the scheduler and recycled through its free list the moment it fires
// (or, for a Timer's event, is stopped): no handle to one escapes the
// package, so no caller can observe the reuse.
type Event struct {
	at     Time
	seq    uint64
	index  int   // absolute slot in its calendar bucket's items (or the ladder); -1 when not queued
	bucket int32 // calendar bucket number (ladderBucket for the overflow ladder)

	// When the event fires it dispatches h.HandleEvent(kind, arg, x).
	// The three payload slots cover the hot paths (phys arrivals carry
	// radio/tx/power) without a closure allocation per event.
	kind int32
	h    EventHandler
	arg  any
	x    float64
}

// EventHandler receives typed events scheduled with ScheduleEvent. The
// (kind, arg, x) triple is whatever the scheduling site passed; the
// handler dispatches on kind.
type EventHandler interface {
	HandleEvent(kind int32, arg any, x float64)
}

// funcEvent adapts a closure to EventHandler, so Schedule files it as an
// ordinary typed event. A func value is pointer-shaped, so converting
// one to the interface does not allocate.
type funcEvent func()

func (f funcEvent) HandleEvent(int32, any, float64) { f() }

// Scheduler is the discrete-event executive. It is not safe for
// concurrent use; the whole simulation runs on one goroutine.
type Scheduler struct {
	now     Time
	seq     uint64
	q       eventQueue
	stopped bool

	// free is the event free list every fired or stopped event
	// returns to.
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

// Schedule queues fn to run d after the current time. The event cannot
// be cancelled (a Timer can); negative d panics: the kernel never travels
// backwards.
func (s *Scheduler) Schedule(d Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event function")
	}
	s.ScheduleEvent(d, funcEvent(fn), 0, nil, 0)
}

// ScheduleEvent queues a typed, fire-and-forget event d after the current
// time: when it fires, h.HandleEvent(kind, arg, x) runs. This is the path
// the physical layer's arrival events use; after warm-up it performs no
// heap allocation per call.
func (s *Scheduler) ScheduleEvent(d Duration, h EventHandler, kind int32, arg any, x float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	s.push(s.now.Add(d), h, kind, arg, x)
}

// scheduleOwned queues an event at absolute time t and returns it to an
// in-package owner (Timer). The owner must be the event's only holder
// and must drop it on fire (before its callback runs) or hand it back
// via cancelOwned, upholding the free-list invariant.
func (s *Scheduler) scheduleOwned(t Time, h EventHandler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", s.now, t))
	}
	return s.push(t, h, 0, nil, 0)
}

// push takes an event from the free list (or allocates one), stamps it
// with the next sequence number and files it.
func (s *Scheduler) push(t Time, h EventHandler, kind int32, arg any, x float64) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{index: -1}
	}
	e.at = t
	e.seq = s.seq
	s.seq++
	e.kind = kind
	e.h = h
	e.arg = arg
	e.x = x
	s.q.push(e)
	s.notePush()
	return e
}

// release returns an event to the free list, dropping payload
// references so the pool does not retain garbage.
func (s *Scheduler) release(e *Event) {
	e.h = nil
	e.arg = nil
	s.free = append(s.free, e)
}

// cancelOwned removes an owner's queued event and returns it to the
// free list.
func (s *Scheduler) cancelOwned(e *Event) {
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
	h, kind, arg, x := e.h, e.kind, e.arg, e.x
	// Recycle before dispatch: the callback may schedule new events and
	// can reuse this struct immediately. Timer, the one owner that
	// holds an event, drops it before its callback runs, so the reuse
	// is unobservable.
	s.release(e)
	h.HandleEvent(kind, arg, x)
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
// slots), and the only way to cancel a scheduled callback. A Timer can be
// reused: Start after Stop or after expiry re-arms it.
//
// Timers ride the scheduler's event free list: arming one allocates
// nothing after warm-up, because the timer is the sole holder of its
// event and returns it to the pool on expiry or Stop.
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
func (t *Timer) Pending() bool { return t.ev != nil }

// Deadline returns the expiry instant of an armed timer; calling it on an
// idle timer panics (it has no deadline).
func (t *Timer) Deadline() Time {
	if !t.Pending() {
		panic("sim: Deadline on idle timer")
	}
	return t.ev.at
}

// Remaining returns how long until an armed timer fires.
func (t *Timer) Remaining() Duration {
	return t.Deadline().Sub(t.s.Now())
}
