package sim

// UseHeap moves s's pending events, in (at, seq) order, into the
// reference binary heap and runs s on it from then on. Whole-run
// identity tests call it right after building a network, so the same
// run executes once on the calendar queue and once on the heap. From
// then on ScheduleSpans files single events, so the heap sees runs only
// if some were queued before the move.
func UseHeap(s *Scheduler) {
	h := &binaryHeap{}
	for e := s.q.popMin(); e != nil; e = s.q.popMin() {
		h.push(e)
	}
	s.q = h
	s.singleSpans = true
}

// OnHeap reports whether s runs on the reference heap (UseHeap), so an
// identity test can prove its two sides took different paths.
func OnHeap(s *Scheduler) bool {
	_, ok := s.q.(*binaryHeap)
	return ok
}
