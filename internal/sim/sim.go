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
	"slices"
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

// MaxSpanDelay is the longest delay a span may carry (ScheduleSpans):
// 2^32-1 ns, about 4.3 s, the most the packed (D, O) sort keys hold.
const MaxSpanDelay Duration = math.MaxUint32

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

// Event is one entry of the pending set: a single callback, or one half
// of a span run (ScheduleSpans) standing in the queue for all of that
// half's remaining deliveries. Every event is owned by the scheduler and
// recycled through its free list the moment it fires (or, for a Timer's
// event, is stopped; for a run's, its last delivery fires): no handle to
// one escapes the package, so no caller can observe the reuse.
type Event struct {
	at     Time // a run's event is keyed by its next delivery's (at, seq)
	seq    uint64
	index  int   // absolute slot in its calendar bucket's items (or the ladder); -1 when not queued
	bucket int32 // calendar bucket number (ladderBucket for the overflow ladder)

	// When the event fires it dispatches h.HandleEvent(kind, arg, x).
	// The three payload slots cover the hot paths (phys arrivals carry
	// radio/tx/power) without a closure allocation per event. A run's
	// event uses none of them except kind, which holds the half
	// (runBegin or runEnd).
	kind int32
	h    EventHandler
	arg  any
	x    float64

	// run is non-nil while the event stands in for a span run.
	run *spanRun
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
	// returns to; runFree is the same for span runs. keys is
	// ScheduleSpans' sort buffer and slot its ordinal-to-span table
	// (all zero between calls).
	free    []*Event
	runFree []*spanRun
	keys    []uint64
	slot    []int32

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

// Pending returns the number of entries currently queued. A span run's
// half counts once however many deliveries it still holds.
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

// PeakPending reports the deepest the pending set has been, in queue
// entries as Pending counts them, while depth tracking was enabled (0 if
// it never was). The calendar queue's sizing is judged against this
// number.
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

// Span is one delivery of a ScheduleSpans call: its handler H, its delay
// D from now, the x its begin event carries, and its ordinal O, which
// orders deliveries that land at the same instant. A call's ordinals
// must be distinct; the scheduler keeps a table of max O + 1 slots, so
// they should also be small (phys passes the receiver's attach index).
type Span struct {
	D Duration
	O uint32
	H EventHandler
	X float64
}

// The halves of a span run, held in its event's kind.
const (
	runBegin = 0
	runEnd   = 1
)

// spanItem is one delivery of a span run, in the run's sorted order.
type spanItem struct {
	d   Duration // delay from the run's base
	seq uint64   // the begin event's seq; the end event's is seq+1
	h   EventHandler
	x   float64
}

// spanRun holds a ScheduleSpans call's deliveries sorted by (delay,
// ordinal), which is (at, seq) order for both halves. Each half has
// one queue entry, keyed by its next item. The end half's last item has
// the largest key of all 2k, so the run returns to the pool when the
// end half is spent.
type spanRun struct {
	items []spanItem
	next  [2]int // next undispatched item of each half
	base  Time
	dur   Duration
	kind  [2]int32
	arg   any
}

// key returns the (at, seq) key of item i of the given half.
func (r *spanRun) key(half int32, i int) (Time, uint64) {
	it := &r.items[i]
	if half == runEnd {
		return r.base.Add(it.d + r.dur), it.seq + 1
	}
	return r.base.Add(it.d), it.seq
}

// ScheduleSpans files a transmission's deliveries: for each span a
// begin event h.HandleEvent(kindBegin, arg, X) at now+D and an end event
// h.HandleEvent(kindEnd, arg, 0) at now+D+dur. Span O's begin gets seq
// s+2·O and its end s+2·O+1, and the call reserves 2·(max O + 1) seqs,
// so the events fire exactly as ScheduleEvent pairs filed in ascending
// O would: at equal instants, the lower ordinal first. The deliveries
// are filed as two runs, the begins and the ends, each sorted by (at,
// seq) and queued as one entry keyed by its next delivery: the queue
// holds two entries per call instead of 2k, and dispatching a delivery
// re-keys its run's entry instead of popping one event and filing
// another. Every delivery still counts one executed event.
//
// A negative D or dur, a D above MaxSpanDelay (a million kilometres
// of propagation), a nil handler and a repeated O panic before anything is
// filed. After warm-up the call performs no heap allocation.
func (s *Scheduler) ScheduleSpans(spans []Span, dur Duration, kindBegin, kindEnd int32, arg any) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %d", dur))
	}
	if len(spans) == 0 {
		return
	}
	keys := s.keys[:0]
	maxO := uint32(0)
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.D < 0:
			panic(fmt.Sprintf("sim: negative delay %d", sp.D))
		case sp.D > MaxSpanDelay:
			panic(fmt.Sprintf("sim: delay %d does not fit a span key", sp.D))
		case sp.H == nil:
			panic("sim: nil event handler")
		}
		keys = append(keys, uint64(sp.D)<<32|uint64(sp.O))
		maxO = max(maxO, sp.O)
	}
	if int(maxO) >= len(s.slot) {
		s.slot = make([]int32, maxO+1)
	}
	slot := s.slot
	for i := range spans {
		o := spans[i].O
		if slot[o] != 0 {
			clear(slot[:maxO+1])
			panic(fmt.Sprintf("sim: repeated span ordinal %d", o))
		}
		slot[o] = int32(i) + 1
	}
	slices.Sort(keys)
	s.keys = keys
	var r *spanRun
	if n := len(s.runFree); n > 0 {
		r = s.runFree[n-1]
		s.runFree[n-1] = nil
		s.runFree = s.runFree[:n-1]
	} else {
		r = &spanRun{}
	}
	for _, k := range keys {
		o := uint32(k)
		sp := &spans[slot[o]-1]
		slot[o] = 0
		r.items = append(r.items, spanItem{d: sp.D, seq: s.seq + 2*uint64(o), h: sp.H, x: sp.X})
	}
	s.seq += 2 * (uint64(maxO) + 1)
	r.next = [2]int{}
	r.base = s.now
	r.dur = dur
	r.kind = [2]int32{kindBegin, kindEnd}
	r.arg = arg
	s.fileRun(r, runBegin)
	s.fileRun(r, runEnd)
}

// fileRun queues one half of r at its first item.
func (s *Scheduler) fileRun(r *spanRun, half int32) {
	e := s.take()
	e.at, e.seq = r.key(half, 0)
	e.kind = half
	e.run = r
	s.q.push(e)
	s.notePush()
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
	e := s.take()
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

// take returns an event from the free list, or a new one.
func (s *Scheduler) take() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &Event{index: -1}
}

// release returns an event to the free list, dropping payload
// references so the pool does not retain garbage.
func (s *Scheduler) release(e *Event) {
	e.h = nil
	e.arg = nil
	e.run = nil
	s.free = append(s.free, e)
}

// spendHalf retires a run half whose last item has been taken, and
// returns the run to its pool with its end half.
func (s *Scheduler) spendHalf(e *Event) {
	r := e.run
	s.release(e)
	if e.kind == runEnd {
		clear(r.items)
		r.items = r.items[:0]
		r.arg = nil
		s.runFree = append(s.runFree, r)
	}
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
	e := s.q.peekMin()
	if e == nil {
		return false
	}
	s.now = e.at
	s.executed++
	if r := e.run; r != nil {
		// Dispatch the run's head item and re-key the run at its next
		// one, which sorts after everything dispatched so far.
		half := e.kind
		i := r.next[half]
		it := &r.items[i]
		h, kind, arg, x := it.h, r.kind[half], r.arg, it.x
		if half == runEnd {
			x = 0
		}
		if i+1 < len(r.items) {
			r.next[half] = i + 1
			s.q.rekeyMin(r.key(half, i+1))
		} else {
			s.q.popMin()
			s.spendHalf(e)
		}
		h.HandleEvent(kind, arg, x)
		return true
	}
	s.q.popMin()
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
