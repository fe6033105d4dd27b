package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchQueues is the q= axis of the scheduler microbenchmarks: the
// production calendar queue and the reference heap it replaced.
var benchQueues = []struct {
	name string
	new  func() *Scheduler
}{
	{"calendar", NewScheduler},
	{"heap", func() *Scheduler { s := NewScheduler(); UseHeap(s); return s }},
}

// BenchmarkSchedulerChurn measures the schedule/cancel/fire cycle that
// dominates MAC timer traffic: every frame arms a timeout, most timeouts
// are cancelled before firing, and the rest fire. The churn runs on the
// pooled timer path, so the loop is allocation-free and the number is
// the queue operations themselves, not the garbage collector.
//
// The pending-population axis is what separates the two queues: the
// binary heap pays O(log n) pointer-chasing sift chains against the
// backlog on every operation, the calendar queue stays in the hot
// bucket. 1M pending approximates a 1000-node run's standing timer
// load.
func BenchmarkSchedulerChurn(b *testing.B) {
	for _, q := range benchQueues {
		for _, pending := range []int{0, 100_000, 1_000_000} {
			b.Run(fmt.Sprintf("q=%s/pending=%d", q.name, pending), func(b *testing.B) {
				s := q.new()
				rng := rand.New(rand.NewSource(1))
				fn := func() {}
				// The backlog: timers spread over the next second, far
				// enough out that the churn loop below always pops its
				// own near-term event.
				for i := 0; i < pending; i++ {
					s.Schedule(Millisecond+Duration(rng.Intn(int(Second))), fn)
				}
				tm := NewTimer(s, fn)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// One cancelled timeout (the common CTS-timeout
					// path)...
					tm.Start(10)
					tm.Stop()
					// ...and one that fires.
					tm.Start(1)
					s.Step()
				}
			})
		}
	}
}

// BenchmarkTimerChurn measures the Timer Start/Stop/expiry cycle used by
// the MAC state machines (defer, backoff, NAV, CTS/ACK timeouts).
func BenchmarkTimerChurn(b *testing.B) {
	s := NewScheduler()
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Start(10)
		t.Stop()
		t.Start(1)
		s.Step()
	}
}

// burstLoad is the event traffic BenchmarkSchedulerBurst replays:
// kind 0 is a standing background event that re-arms itself, kind 1 a
// transmission's arrival (begin or end), counted down as it fires.
type burstLoad struct {
	s        *Scheduler
	delays   []Duration // background re-arm delays, cycled
	next     int
	inFlight int
}

func (l *burstLoad) HandleEvent(kind int32, _ any, _ float64) {
	if kind == 1 {
		l.inFlight--
		return
	}
	l.s.ScheduleEvent(l.delays[l.next], l, 0, nil, 0)
	l.next = (l.next + 1) % len(l.delays)
}

// BenchmarkSchedulerBurst models the channel's fan-out, the traffic
// BenchmarkSchedulerChurn misses: one op is one transmission, which
// schedules a begin arrival at each of k neighbours (distinct sub-µs
// propagation delays, in neighbour order, so a calendar bucket fills in
// scrambled order) and an end arrival a frame time later, arms a
// timeout timer, fires until all 2k arrivals have landed, and stops the
// timer. A standing background population, each event re-arming itself
// when it fires, interleaves with the arrivals; its sizes are the
// workloads' peak pending depths before arrivals were filed as runs
// (paper-fig8 ~400, scale500-mobile ~1600, scale2000-static ~4000).
// The file= axis is how the arrivals reach the queue: 2k ScheduleEvent
// calls, or one ScheduleSpans call (two runs, on either queue). All of
// it rides the pooled paths, so the loop is allocation-free.
func BenchmarkSchedulerBurst(b *testing.B) {
	const (
		k       = 32
		senders = 50
		frame   = Millisecond
	)
	rng := rand.New(rand.NewSource(1))
	prop := make([][k]Duration, senders)
	for i := range prop {
		for j, d := range rng.Perm(1000)[:k] {
			prop[i][j] = Duration(d)
		}
	}
	for _, q := range benchQueues {
		for _, file := range []string{"events", "spans"} {
			for _, pending := range []int{400, 1600, 4000} {
				b.Run(fmt.Sprintf("q=%s/file=%s/pending=%d", q.name, file, pending), func(b *testing.B) {
					s := q.new()
					// Background span such that about k background events
					// fire per frame time.
					span := int(frame) * pending / k
					l := &burstLoad{s: s, delays: make([]Duration, 4096)}
					for i := range l.delays {
						l.delays[i] = Duration(1 + rng.Intn(span))
					}
					for i := 0; i < pending; i++ {
						s.ScheduleEvent(l.delays[i%len(l.delays)], l, 0, nil, 0)
					}
					spans := make([]Span, k)
					tm := NewTimer(s, func() {})
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if file == "spans" {
							for j, d := range prop[i%senders] {
								spans[j] = Span{D: d, O: uint32(j), H: l}
							}
							s.ScheduleSpans(spans, frame, 1, 1, nil)
						} else {
							for _, d := range prop[i%senders] {
								s.ScheduleEvent(d, l, 1, nil, 0)
								s.ScheduleEvent(d+frame, l, 1, nil, 0)
							}
						}
						l.inFlight += 2 * k
						tm.Start(2 * frame)
						for l.inFlight > 0 {
							s.Step()
						}
						tm.Stop()
					}
				})
			}
		}
	}
}
