package sim

import "math/bits"

// eventQueue is the scheduler's pending-event set. The calendar queue
// is its only production implementation; test builds add the reference
// binary heap (heap_test.go), which UseHeap swaps in so whole runs can
// be diffed between the two. The contract both honour:
//
//   - Total order. peekMin/popMin return the queued event with the
//     smallest (at, seq) key — an exact minimum, never merely an
//     equal-time approximation. Same-instant events therefore pop in
//     schedule order, which is what makes a run's event trace (and its
//     JSONL output) independent of the queue implementation.
//   - Position bookkeeping. While an event is queued, its index (and,
//     for the calendar queue, bucket) fields belong to the queue, which
//     is how remove finds it. popMin and remove must leave index
//     negative.
//   - Monotone pushes. push may assume e.at is never earlier than the
//     last popped event's time minus the clock rewinds the kernel
//     forbids — i.e. the scheduler has already range-checked e.at
//     against now. (Run's horizon clamp can still move now past base;
//     implementations must tolerate pushes below their internal anchor,
//     which the calendar queue handles by re-anchoring.)
//   - remove is called only for queued events, exactly once per queued
//     lifetime (the scheduler's one remover is Timer.Stop).
type eventQueue interface {
	push(e *Event)
	peekMin() *Event
	popMin() *Event
	remove(e *Event)
	len() int
}

// qitem is a calendar-queue entry: the ordering key inlined next to the
// event pointer, so bucket scans and sorted inserts compare keys from
// one contiguous slice instead of chasing *Event pointers — the cache
// behaviour a binary heap lacks.
type qitem struct {
	at  Time
	seq uint64
	ev  *Event
}

func qless(a, b qitem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// ladderBucket marks (in Event.bucket) an event parked in the
	// overflow ladder rather than a calendar bucket.
	ladderBucket = -2

	// calMinBuckets floors the bucket-array size so tiny populations
	// never resize.
	calMinBuckets = 64

	// calMaxBuckets caps growth: 32-byte bucket headers make the array
	// itself the cost at extreme sizes.
	calMaxBuckets = 1 << 22

	// calGrowAt / calShrinkAt bound the average occupancy (pending
	// events per bucket): grow past 8, shrink below 1/4. Resizing
	// targets ~4, so sorted inserts move only a handful of 24-byte
	// items.
	calGrowAt   = 8
	calShrinkAt = 1
)

// bucket is one calendar slot: items[head:] are its live entries,
// sorted by (at, seq). Popping the head advances head instead of
// shifting the slice, so draining a k-item bucket is O(k), not O(k²).
// The dead prefix items[:head] is reclaimed when the bucket empties, or
// by sliding the live entries down when an append would otherwise grow
// the backing array.
type bucket struct {
	items []qitem
	head  int
}

// calendarQueue is a calendar queue (Brown 1988), modified to keep a
// strict one-year window instead of wrapping: buckets partition
// [base, base+year) into fixed-width slots, bucket contents stay sorted
// by (at, seq), and everything at or past base+year waits in an
// overflow ladder that is sorted lazily — items are merged into sorted
// buckets only when the year advances over them. The year advances
// (advance) only when the buckets are empty, so the head of the first
// non-empty bucket at or after cur is always the global minimum.
//
// Near-term operations are amortised O(1): push binary-searches one
// ~4-item bucket (an item below the bucket's head takes the free slot
// before it), pop advances one bucket's head offset, far-future push
// appends to the ladder. The O(n) events — re-bucketing a year advance,
// resize after the population grows or shrinks 8x — happen once per
// O(n) cheap operations, and each advance retunes the width from the
// pops the last year held, so a width tuned on a burst does not leave
// most pushes in the ladder.
type calendarQueue struct {
	buckets []bucket
	width   Duration // time span of one bucket, >= 1ns
	yr      Duration // cached width × len(buckets), saturating (setWidth)
	base    Time     // start of the current year; all bucket items are in [base, base+year)
	cur     int      // no non-empty bucket before this index
	ncal    int      // items in buckets (excludes ladder)
	pops    int      // popMin calls since the last advance

	// occ is the occupancy bitmap: bit b set iff buckets[b] is
	// non-empty. The find-next-event scan walks this (16KB per million
	// pending, cache-resident) instead of the multi-megabyte bucket
	// array.
	occ []uint64

	// ladder holds events at or past base+year, unsorted, removable in
	// O(1) by swap-delete (Event.index is the slice position).
	ladder []qitem
}

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{
		buckets: make([]bucket, calMinBuckets),
		occ:     make([]uint64, calMinBuckets/64),
	}
	q.setWidth(10 * Microsecond)
	return q
}

func (q *calendarQueue) len() int { return q.ncal + len(q.ladder) }

// setWidth sets the bucket width and recomputes the cached year,
// saturating instead of overflowing when the width is huge.
func (q *calendarQueue) setWidth(w Duration) {
	q.width = w
	n := Duration(len(q.buckets))
	q.yr = w * n
	if q.yr/n != w {
		q.yr = Duration(MaxTime)
	}
}

func (q *calendarQueue) push(e *Event) {
	if e.at < q.base {
		// Only reachable after Run's horizon clamp moved now backwards
		// relative to a base that advance() had jumped past the horizon;
		// rare enough that an O(n) rebuild is fine.
		q.reanchor(e.at)
	}
	q.insert(qitem{at: e.at, seq: e.seq, ev: e})
	if q.len() > calGrowAt*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.resize()
	}
}

// insert files an item into its sorted bucket, or into the ladder when
// it lies beyond the current year. Requires it.at >= base.
func (q *calendarQueue) insert(it qitem) {
	if Duration(it.at-q.base) >= q.yr {
		it.ev.bucket = ladderBucket
		it.ev.index = len(q.ladder)
		q.ladder = append(q.ladder, it)
		return
	}
	b := int(Duration(it.at-q.base) / q.width)
	bk := &q.buckets[b]
	lo, hi := bk.head, len(bk.items)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if qless(bk.items[m], it) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	it.ev.bucket = int32(b)
	if lo == bk.head && lo > 0 {
		// Below every live item, with a free slot before the head.
		bk.head--
		lo = bk.head
		bk.items[lo] = it
	} else {
		if bk.head > 0 && len(bk.items) == cap(bk.items) {
			// Reclaim the dead prefix rather than grow the array.
			n := copy(bk.items, bk.items[bk.head:])
			clear(bk.items[n:])
			bk.items = bk.items[:n]
			lo -= bk.head
			bk.head = 0
			for i := 0; i < lo; i++ {
				bk.items[i].ev.index = i
			}
		}
		bk.items = append(bk.items, qitem{})
		copy(bk.items[lo+1:], bk.items[lo:])
		bk.items[lo] = it
		for i := lo + 1; i < len(bk.items); i++ {
			bk.items[i].ev.index = i
		}
	}
	it.ev.index = lo
	q.occ[b>>6] |= 1 << (b & 63)
	if b < q.cur {
		// peekMin may have walked cur past this bucket while it was
		// empty (e.g. peeking beyond a Run horizon); rewind so the scan
		// still starts at or before the first non-empty bucket.
		q.cur = b
	}
	q.ncal++
}

func (q *calendarQueue) peekMin() *Event {
	if q.ncal == 0 {
		if len(q.ladder) == 0 {
			return nil
		}
		q.advance()
	}
	if len(q.buckets[q.cur].items) == 0 {
		// Scan the occupancy bitmap for the next non-empty bucket;
		// ncal > 0 guarantees a set bit at or after cur.
		w := q.cur >> 6
		word := q.occ[w] &^ (1<<(q.cur&63) - 1)
		for word == 0 {
			w++
			word = q.occ[w]
		}
		q.cur = w<<6 + bits.TrailingZeros64(word)
	}
	bk := &q.buckets[q.cur]
	return bk.items[bk.head].ev
}

func (q *calendarQueue) popMin() *Event {
	e := q.peekMin()
	if e == nil {
		return nil
	}
	q.pops++
	q.remove(e)
	return e
}

func (q *calendarQueue) remove(e *Event) {
	if e.bucket == ladderBucket {
		i := e.index
		last := len(q.ladder) - 1
		if i != last {
			q.ladder[i] = q.ladder[last]
			q.ladder[i].ev.index = i
		}
		q.ladder[last] = qitem{}
		q.ladder = q.ladder[:last]
	} else {
		b := int(e.bucket)
		bk := &q.buckets[b]
		i := e.index
		if i == bk.head {
			bk.items[i] = qitem{}
			bk.head++
			if bk.head == len(bk.items) {
				// Emptied: the whole backing array is free again.
				bk.items = bk.items[:0]
				bk.head = 0
				q.occ[b>>6] &^= 1 << (b & 63)
			}
		} else {
			copy(bk.items[i:], bk.items[i+1:])
			bk.items[len(bk.items)-1] = qitem{}
			bk.items = bk.items[:len(bk.items)-1]
			for j := i; j < len(bk.items); j++ {
				bk.items[j].ev.index = j
			}
		}
		q.ncal--
	}
	e.index = -1
	e.bucket = -1
	if q.len() < calShrinkAt*len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize()
	}
}

// advance moves the year to the earliest ladder item and re-buckets
// every ladder item that the new window reaches. Only called with empty
// buckets and a non-empty ladder; afterwards ncal >= 1 (the minimum
// itself always lands in bucket 0).
//
// Empty buckets make this the free moment to retune the width from the
// year just finished: under half a pop per bucket means the year was
// too short (most pushes overflowed to the ladder, and each advance
// rescans it), over four per bucket means it was too coarse.
func (q *calendarQueue) advance() {
	switch nb := len(q.buckets); {
	case q.pops < nb/2 && q.width <= Duration(MaxTime)/2:
		q.setWidth(2 * q.width)
	case q.pops > 4*nb && q.width > 1:
		q.setWidth(q.width / 2)
	}
	q.pops = 0
	min := q.ladder[0]
	for _, it := range q.ladder[1:] {
		if qless(it, min) {
			min = it
		}
	}
	q.base = min.at
	q.cur = 0
	q.migrate()
}

// migrate re-files ladder items that now fall inside the year.
func (q *calendarQueue) migrate() {
	for i := 0; i < len(q.ladder); {
		it := q.ladder[i]
		if Duration(it.at-q.base) >= q.yr {
			i++
			continue
		}
		last := len(q.ladder) - 1
		if i != last {
			q.ladder[i] = q.ladder[last]
			q.ladder[i].ev.index = i
		}
		q.ladder[last] = qitem{}
		q.ladder = q.ladder[:last]
		q.insert(it)
	}
}

// collect drains every bucket, returning the items globally sorted
// (bucket order is time order, buckets are sorted internally).
func (q *calendarQueue) collect() []qitem {
	items := make([]qitem, 0, q.ncal)
	for b := q.cur; b < len(q.buckets); b++ {
		bk := &q.buckets[b]
		items = append(items, bk.items[bk.head:]...)
		bk.items = bk.items[:0]
		bk.head = 0
	}
	for w := range q.occ {
		q.occ[w] = 0
	}
	q.ncal = 0
	return items
}

// resize rebuilds the bucket array for the current population: the
// bucket count targets ~4 items per bucket and the width is tuned to
// the observed spacing of the next events to fire, so a cluster of
// near-term events spreads across many buckets even when a far outlier
// stretches the total span. Items the retuned year no longer covers
// fall through insert into the ladder; ladder items it newly covers are
// migrated in.
func (q *calendarQueue) resize() {
	total := q.len()
	items := q.collect()

	n := calMinBuckets
	for n < total/4 && n < calMaxBuckets {
		n *= 2
	}
	q.buckets = make([]bucket, n)
	q.occ = make([]uint64, n/64)
	q.cur = 0

	// Tune width from the head of the sorted calendar population: the
	// average gap over (up to) the next 64 events, times the target
	// occupancy. Head sampling, not total span / count, is what keeps
	// one far-future event from inflating every bucket.
	// base stays put: it is already a lower bound for every item, and
	// raising it to items[0].at would strand the scheduler clock below
	// base, turning every near-term push into an O(n) reanchor.
	w := q.width
	if len(items) >= 2 {
		k := min(len(items), 64)
		span := Duration(items[k-1].at - items[0].at)
		w = max(4*span/Duration(k-1), 1)
	}
	q.setWidth(w)
	for _, it := range items {
		q.insert(it)
	}
	// A wider year may now cover ladder items (and repeated grows will
	// pull a deep ladder in stepwise).
	q.migrate()
}

// reanchor rebuilds the calendar with base at, for the rare push below
// base (see push).
func (q *calendarQueue) reanchor(at Time) {
	items := q.collect()
	q.base = at
	q.cur = 0
	for _, it := range items {
		q.insert(it)
	}
}
