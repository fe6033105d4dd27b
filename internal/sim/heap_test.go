package sim

import "container/heap"

// binaryHeap is the reference pending set: the original container/heap
// binary heap behind the eventQueue interface. Event.index is the heap
// position. Only test builds carry it, as the oracle the calendar queue
// is diffed against (queueDiff, FuzzQueueMatchesHeap, UseHeap).
type binaryHeap struct{ h eventHeap }

func (b *binaryHeap) push(e *Event) { heap.Push(&b.h, e) }

func (b *binaryHeap) peekMin() *Event {
	if len(b.h) == 0 {
		return nil
	}
	return b.h[0]
}

func (b *binaryHeap) popMin() *Event {
	if len(b.h) == 0 {
		return nil
	}
	return heap.Pop(&b.h).(*Event)
}

func (b *binaryHeap) rekeyMin(at Time, seq uint64) {
	b.h[0].at, b.h[0].seq = at, seq
	heap.Fix(&b.h, 0)
}

func (b *binaryHeap) remove(e *Event) { heap.Remove(&b.h, e.index) }

func (b *binaryHeap) len() int { return len(b.h) }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
