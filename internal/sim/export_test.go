package sim

// UseHeap moves s's pending events, in (at, seq) order, into the
// reference binary heap and runs s on it from then on. Whole-run
// identity tests call it right after building a network, so the same
// run executes once on the calendar queue and once on the heap. Span
// runs move with the rest and keep working on the heap.
func UseHeap(s *Scheduler) {
	h := &binaryHeap{}
	for e := s.q.popMin(); e != nil; e = s.q.popMin() {
		h.push(e)
	}
	s.q = h
}

// OnHeap reports whether s runs on the reference heap (UseHeap), so an
// identity test can prove its two sides took different paths.
func OnHeap(s *Scheduler) bool {
	_, ok := s.q.(*binaryHeap)
	return ok
}
