package sim

import (
	"math/rand"
	"testing"
)

// TestSchedulerQueueKind pins the scheduler's queue seam: NewScheduler
// runs on the calendar queue, and UseHeap moves an already-populated
// pending set onto the reference heap without losing, reordering or
// orphaning an event (a cancel after the move still finds its event).
func TestSchedulerQueueKind(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.q.(*calendarQueue); !ok || OnHeap(s) {
		t.Fatalf("NewScheduler queue = %T; want *calendarQueue", s.q)
	}
	var order []int
	var handles []*Event
	for i, d := range []Duration{5, 1, 3, 1, 1000 * Second, 2} {
		i := i
		handles = append(handles, s.Schedule(d, func() { order = append(order, i) }))
	}
	UseHeap(s)
	if !OnHeap(s) {
		t.Fatalf("after UseHeap queue = %T; want *binaryHeap", s.q)
	}
	if s.Pending() != len(handles) {
		t.Fatalf("Pending = %d after UseHeap; want %d", s.Pending(), len(handles))
	}
	s.Cancel(handles[2])
	s.RunAll()
	want := []int{1, 3, 5, 0, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v; want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v; want %v", order, want)
		}
	}
}

// queueDiff drives a heap and a calendar queue with the same ops and
// fails the test as soon as their pop streams or lengths differ. The
// same slot of pending[0] and pending[1] is always the same logical
// event in both queues.
type queueDiff struct {
	tb      testing.TB
	qs      [2]eventQueue
	pending [2][]*Event
	now     Time
	seq     uint64
}

func newQueueDiff(tb testing.TB) *queueDiff {
	return &queueDiff{tb: tb, qs: [2]eventQueue{&binaryHeap{}, newCalendarQueue()}}
}

func (d *queueDiff) cal() *calendarQueue { return d.qs[1].(*calendarQueue) }

func (d *queueDiff) push(at Time) {
	for i, q := range d.qs {
		e := &Event{at: at, seq: d.seq, index: -1}
		q.push(e)
		d.pending[i] = append(d.pending[i], e)
	}
	d.seq++
	d.checkLen()
}

// remove cancels live slot j (if it has not popped yet) from both
// queues and drops it from the mirror.
func (d *queueDiff) remove(j int) {
	for i, q := range d.qs {
		if e := d.pending[i][j]; e.Pending() {
			q.remove(e)
		}
		last := len(d.pending[i]) - 1
		d.pending[i][j] = d.pending[i][last]
		d.pending[i] = d.pending[i][:last]
	}
	d.checkLen()
}

// pop pops both queues, requires the same (at, seq), and reports
// whether they were non-empty.
func (d *queueDiff) pop() bool {
	a, b := d.qs[0].popMin(), d.qs[1].popMin()
	if (a == nil) != (b == nil) {
		d.tb.Fatalf("pop mismatch: heap=%v calendar=%v", a, b)
	}
	if a == nil {
		return false
	}
	if a.at != b.at || a.seq != b.seq {
		d.tb.Fatalf("heap popped (%d,%d), calendar popped (%d,%d)", a.at, a.seq, b.at, b.seq)
	}
	if a.at < d.now {
		d.tb.Fatalf("pop went backwards: %v < %v", a.at, d.now)
	}
	d.now = a.at
	d.checkLen()
	return true
}

func (d *queueDiff) checkLen() {
	if d.qs[0].len() != d.qs[1].len() {
		d.tb.Fatalf("len mismatch: heap=%d calendar=%d", d.qs[0].len(), d.qs[1].len())
	}
}

// drain requires the full remaining streams to match.
func (d *queueDiff) drain() {
	for d.pop() {
	}
}

// TestQueuePopStreamsIdentical drives the two eventQueue implementations
// directly with the same randomized push/remove/pop sequences and
// requires identical (at, seq) pop streams — the total-order contract
// that makes whole runs byte-identical on either queue.
func TestQueuePopStreamsIdentical(t *testing.T) {
	t.Run("mixed", queueStreamsMixed)
	t.Run("burst", queueStreamsBurst)
}

// queueStreamsMixed: mostly near-term pushes with ties and
// year-overflowing outliers, random cancels and pops.
func queueStreamsMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		d := newQueueDiff(t)
		steps := 400 + rng.Intn(400)
		for op := 0; op < steps; op++ {
			switch r := rng.Float64(); {
			case r < 0.55:
				// Mostly near-term, sometimes same-instant (ties),
				// sometimes a year-overflowing outlier.
				var dt Duration
				switch k := rng.Float64(); {
				case k < 0.2:
					dt = 0
				case k < 0.9:
					dt = Duration(rng.Intn(int(5 * Millisecond)))
				default:
					dt = Duration(rng.Intn(int(100*Second))) + Second
				}
				d.push(d.now.Add(dt))
			case r < 0.75 && len(d.pending[0]) > 0:
				d.remove(rng.Intn(len(d.pending[0])))
			default:
				d.pop()
			}
		}
		d.drain()
	}
}

// queueStreamsBurst follows the channel's fan-out shape: each burst
// files equal-time and sub-width clusters into one bucket, cancels hit
// mid-bucket items after some head pops, buckets drain and refill, and
// gaps from microseconds to minutes make advance retune the width many
// times. The counters at the end require that every one of those paths
// actually ran.
func queueStreamsBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var midCancels, widthChanges, drains int
	for trial := 0; trial < 10; trial++ {
		d := newQueueDiff(t)
		for burst := 0; burst < 300; burst++ {
			// Where the burst lands: mostly soon, sometimes far enough
			// out that the year must advance (and retune) to reach it.
			var start Duration
			switch k := rng.Float64(); {
			case k < 0.5:
				start = Duration(rng.Intn(int(Microsecond)))
			case k < 0.8:
				start = Duration(rng.Intn(int(Millisecond)))
			case k < 0.95:
				start = Duration(rng.Intn(int(Second)))
			default:
				start = Duration(rng.Intn(int(100 * Second)))
			}
			k := 1 + rng.Intn(40)
			for j := 0; j < k; j++ {
				var off Duration
				if rng.Float64() < 0.7 {
					off = Duration(rng.Intn(1000)) // sub-width
				}
				d.push(d.now.Add(start + off))
			}
			for p := rng.Intn(k + 1); p > 0; p-- {
				d.pop()
			}
			for c := rng.Intn(4); c > 0 && len(d.pending[0]) > 0; c-- {
				j := rng.Intn(len(d.pending[0]))
				if e := d.pending[1][j]; e.Pending() && e.bucket >= 0 {
					bk := d.cal().buckets[e.bucket]
					if bk.head > 0 && e.index > bk.head && e.index < len(bk.items)-1 {
						midCancels++
					}
				}
				d.remove(j)
			}
			if rng.Float64() < 0.1 {
				w := d.cal().width
				d.drain()
				drains++
				if d.cal().width != w {
					widthChanges++
				}
			}
		}
		d.drain()
	}
	if midCancels < 10 || widthChanges < 10 || drains < 10 {
		t.Fatalf("burst stream too tame: %d mid-bucket cancels after head pops, %d width changes, %d drains; want >= 10 each",
			midCancels, widthChanges, drains)
	}
}

// TestCalendarBucketReclaimsPrefix pins the head-offset reclaim rule: a
// bucket that keeps popping its head while appending behind it slides
// its live items down instead of growing its backing array, so its
// capacity stays bounded by its live count, not by the items that ever
// passed through it.
func TestCalendarBucketReclaimsPrefix(t *testing.T) {
	q := newCalendarQueue()
	const live = 8
	at := Time(0)
	var seq uint64
	push := func() {
		q.push(&Event{at: at, seq: seq, index: -1})
		at++
		seq++
	}
	for i := 0; i < live; i++ {
		push()
	}
	// Every item stays in bucket 0 (one 10µs width = 10k ns).
	for i := 0; i < 5000; i++ {
		e := q.popMin()
		if want := Time(i); e.at != want {
			t.Fatalf("pop %d: at=%d, want %d", i, e.at, want)
		}
		push()
		bk := q.buckets[0]
		if n := len(bk.items) - bk.head; n != live {
			t.Fatalf("pop %d: %d live items in bucket 0, want %d", i, n, live)
		}
		if c := cap(bk.items); c > 2*live {
			t.Fatalf("pop %d: bucket 0 cap %d grew past 2x its %d live items", i, c, live)
		}
	}
}

// TestCalendarInsertBelowHead: an item that sorts before every live item
// of a bucket whose head has been popped takes the freed slot before the
// head, without moving the others.
func TestCalendarInsertBelowHead(t *testing.T) {
	q := newCalendarQueue()
	evs := []*Event{{at: 5, seq: 0}, {at: 6, seq: 1}, {at: 7, seq: 2}}
	for _, e := range evs {
		q.push(e)
	}
	if e := q.popMin(); e != evs[0] {
		t.Fatalf("popped %+v, want the t=5 event", e)
	}
	low := &Event{at: 5, seq: 3}
	q.push(low)
	bk := q.buckets[0]
	if bk.head != 0 || low.index != 0 || evs[1].index != 1 || evs[2].index != 2 || len(bk.items) != 3 {
		t.Fatalf("head=%d len=%d indices %d,%d,%d; want the new item in the freed slot 0",
			bk.head, len(bk.items), low.index, evs[1].index, evs[2].index)
	}
	for _, want := range []*Event{low, evs[1], evs[2]} {
		if e := q.popMin(); e != want {
			t.Fatalf("popped %+v, want %+v", e, want)
		}
	}
}

// TestCalendarYearRetunes pins the width retune at advance: a year that
// held under half a pop per bucket doubles the width, one that held
// over four halves it.
func TestCalendarYearRetunes(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		// A lone event every 10ms: each year that holds fewer than
		// nb/2 of them doubles the width, until one holds at least that
		// many.
		const gap = 10 * Millisecond
		q := newCalendarQueue()
		var now Time
		for i := 0; i < 500; i++ {
			now += Time(gap)
			q.push(&Event{at: now, seq: uint64(i)})
			q.popMin()
		}
		if held := q.yr / gap; held < calMinBuckets/2 || held >= calMinBuckets {
			t.Fatalf("width %v: a year holds %d events; want the smallest doubling holding >= %d",
				q.width, held, calMinBuckets/2)
		}
	})
	t.Run("dense", func(t *testing.T) {
		// 300 pops in one 64ms year (over 4 per bucket), then an advance
		// to a far event halves the width.
		q := newCalendarQueue()
		q.setWidth(Millisecond)
		for i := 0; i < 300; i++ {
			q.push(&Event{at: Time(i) * Time(Microsecond), seq: uint64(i)})
		}
		q.push(&Event{at: Time(Second), seq: 300})
		for q.len() > 0 {
			q.popMin()
		}
		if q.width != Millisecond/2 {
			t.Fatalf("width %v after a 300-pop year; want %v", q.width, Millisecond/2)
		}
	})
}

// TestSchedulerTraceIdentical runs the same randomized schedule / cancel /
// timer / horizon workload through a heap scheduler and a calendar
// scheduler and requires the identical fire trace.
func TestSchedulerTraceIdentical(t *testing.T) {
	type fire struct {
		at    Time
		label int
	}
	run := func(heap bool, seed int64) []fire {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		if heap {
			UseHeap(s)
		}
		var trace []fire
		var handles []*Event
		var label int
		timers := make([]*Timer, 4)
		for i := range timers {
			i := i
			timers[i] = NewTimer(s, func() { trace = append(trace, fire{s.Now(), -1 - i}) })
		}
		for op := 0; op < 3000; op++ {
			switch r := rng.Float64(); {
			case r < 0.35:
				l := label
				label++
				var d Duration
				switch k := rng.Float64(); {
				case k < 0.15:
					d = 0
				case k < 0.85:
					d = Duration(rng.Intn(int(2 * Millisecond)))
				default:
					d = Duration(rng.Intn(int(30*Second))) + Second
				}
				handles = append(handles, s.Schedule(d, func() { trace = append(trace, fire{s.Now(), l}) }))
			case r < 0.45:
				l := label
				label++
				rec := &funcHandler{}
				rec.fn = func() { trace = append(trace, fire{s.Now(), 100000 + l}) }
				s.ScheduleEvent(Duration(rng.Intn(int(Millisecond))), rec, int32(l), nil, 0)
			case r < 0.55 && len(handles) > 0:
				s.Cancel(handles[rng.Intn(len(handles))])
			case r < 0.7:
				tm := timers[rng.Intn(len(timers))]
				if rng.Float64() < 0.8 {
					tm.Start(Duration(rng.Intn(int(Millisecond))))
				} else {
					tm.Stop()
				}
			case r < 0.85:
				s.Step()
			default:
				s.Run(s.Now().Add(Duration(rng.Intn(int(10 * Millisecond)))))
			}
		}
		s.RunAll()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		h := run(true, seed)
		c := run(false, seed)
		if len(h) != len(c) {
			t.Fatalf("seed %d: trace length heap=%d calendar=%d", seed, len(h), len(c))
		}
		for i := range h {
			if h[i] != c[i] {
				t.Fatalf("seed %d: trace[%d] heap=%+v calendar=%+v", seed, i, h[i], c[i])
			}
		}
	}
}

// TestCalendarFarFuture covers the overflow ladder: far-future events
// (including MaxTime) must sort correctly against near-term ones and be
// cancellable while parked in the ladder.
func TestCalendarFarFuture(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(MaxTime, func() { order = append(order, "max") })
	far := s.At(5000*Time(Second), func() { order = append(order, "far-cancelled") })
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Schedule(Millisecond, func() { order = append(order, "near") })
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d; want 4", got)
	}
	s.Cancel(far)
	if far.Pending() {
		t.Fatal("cancelled ladder event still pending")
	}
	s.RunAll()
	want := []string{"near", "far", "max"}
	if len(order) != len(want) {
		t.Fatalf("fired %v; want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v; want %v", order, want)
		}
	}
	if s.Now() != MaxTime {
		t.Errorf("clock = %v; want MaxTime", s.Now())
	}
}

// TestCalendarReanchor covers the push-below-base rebuild: after Run's
// horizon clamp, the year can sit beyond now (advance jumped to a
// far-future ladder minimum), and a subsequent near-term schedule must
// still fire first.
func TestCalendarReanchor(t *testing.T) {
	s := NewScheduler()
	var order []string
	s.At(1000*Time(Second), func() { order = append(order, "far") })
	s.Run(Time(Second)) // peeks the far event, advancing the year to t=1000s
	if s.Now() != Time(Second) {
		t.Fatalf("clock = %v; want 1s", s.Now())
	}
	s.Schedule(Millisecond, func() { order = append(order, "near") })
	s.RunAll()
	if len(order) != 2 || order[0] != "near" || order[1] != "far" {
		t.Fatalf("fired %v; want [near far]", order)
	}
}

// TestCalendarResizeChurn pushes the population through several grow and
// shrink cycles and checks global ordering end to end.
func TestCalendarResizeChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScheduler()
	const n = 20000
	var fired int
	var last Time
	check := func() {
		if s.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
		fired++
	}
	for i := 0; i < n; i++ {
		s.Schedule(Duration(rng.Intn(int(Second))), check)
	}
	// Drain halfway (forcing shrink), refill (forcing grow), drain all.
	for i := 0; i < n/2; i++ {
		s.Step()
	}
	for i := 0; i < n; i++ {
		s.Schedule(Duration(rng.Intn(int(2*Second))), check)
	}
	s.RunAll()
	if fired != 2*n {
		t.Fatalf("fired %d events; want %d", fired, 2*n)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", s.Pending())
	}
}

// TestCancelFiredPooledEvent is the regression test for the documented
// no-op: cancelling a pooled event after it has fired (and returned to
// the free list) must leave the scheduler untouched.
func TestCancelFiredPooledEvent(t *testing.T) {
	s := NewScheduler()
	var fired int
	rec := &funcHandler{fn: func() { fired++ }}
	stale := s.scheduleOwned(Time(Microsecond), rec)
	if !s.Step() {
		t.Fatal("Step fired nothing")
	}
	if fired != 1 {
		t.Fatalf("fired = %d; want 1", fired)
	}
	if stale.Pending() {
		t.Fatal("fired pooled event still pending")
	}
	// The struct is on the free list now; Cancel must be a no-op.
	s.Cancel(stale)
	s.cancelOwned(nil)
	s.Cancel(nil)

	// The scheduler must still work, and the recycled struct must be
	// reusable: the next pooled schedule draws it back from the pool.
	s.ScheduleEvent(Microsecond, rec, 0, nil, 0)
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d; want 1", s.Pending())
	}
	s.RunAll()
	if fired != 2 {
		t.Fatalf("fired = %d; want 2", fired)
	}
}
