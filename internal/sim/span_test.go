package sim

import (
	"fmt"
	"math"
	"testing"
)

// dispatch is one handler call as a span test sees it.
type dispatch struct {
	now  Time
	id   int
	kind int32
	x    float64
}

// spanSide is one scheduler of a span diff, with the dispatch log its
// handlers append to and its handlers and timers, addressed by index
// so both sides of a diff can be driven with the same op stream.
type spanSide struct {
	s      *Scheduler
	log    []dispatch
	hs     []*spanHandler
	timers []*Timer
	spans  []Span
}

// spanHandler logs every dispatch. A begin event whose x is 1 or more
// files a nested span call from inside the dispatch, derived only from
// what it was handed, so both sides nest identically while their
// dispatch streams agree; nested x counts down, bounding the depth.
type spanHandler struct {
	side *spanSide
	id   int
}

const (
	kindSpanBegin = 3
	kindSpanEnd   = 4
)

func (h *spanHandler) HandleEvent(kind int32, _ any, x float64) {
	sd := h.side
	sd.log = append(sd.log, dispatch{sd.s.Now(), h.id, kind, x})
	if kind != kindSpanBegin || x < 1 {
		return
	}
	n := 2 + (h.id+int(sd.s.Now()))%3
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{
			D: Duration((h.id*7 + i*13) % 5 * 300),
			H: sd.hs[(h.id+i)%len(sd.hs)],
			X: x - 1,
		}
	}
	sd.s.ScheduleSpans(spans, Duration(h.id%3)*400, kindSpanBegin, kindSpanEnd, nil)
}

func newSpanSide(heap bool) *spanSide {
	sd := &spanSide{s: NewScheduler()}
	if heap {
		UseHeap(sd.s)
	}
	for i := 0; i < 6; i++ {
		sd.hs = append(sd.hs, &spanHandler{side: sd, id: i})
	}
	for j := 0; j < 3; j++ {
		id := 100 + j
		sd.timers = append(sd.timers, NewTimer(sd.s, func() {
			sd.log = append(sd.log, dispatch{sd.s.Now(), id, -1, 0})
		}))
	}
	return sd
}

// spanDelay maps a (class, n) pair to a delay: 0, sub-µs, µs or ms.
func spanDelay(class, n int) Duration {
	switch class % 4 {
	case 1:
		return Duration(n * 3)
	case 2:
		return Duration(n) * Microsecond
	case 3:
		return Duration(n) * Millisecond
	}
	return 0
}

// FuzzSpansMatchSingleEvents drives two schedulers with one op stream:
// one on the calendar queue, filing span runs, and one on the reference
// heap after UseHeap, filing every span as two single events. Ops file
// spans (0-5 of them, with delays all 0, all equal, sub-µs, µs or ms
// apart, and durations of 0, shorter than the delay spread, or a frame
// time), file plain events, start and stop timers, Step, and Run to a
// partial horizon; handlers file nested spans when dispatched. Both
// sides must dispatch the same (now, handler, kind, x) stream and
// execute the same event count.
//
// The seed corpus is in testdata/fuzz/FuzzSpansMatchSingleEvents; plain
// go test replays it.
//
//	go test -run '^$' -fuzz FuzzSpansMatchSingleEvents -fuzztime 15s ./internal/sim
func FuzzSpansMatchSingleEvents(f *testing.F) {
	f.Fuzz(runSpanDiff)
}

func runSpanDiff(t *testing.T, data []byte) {
	sides := [2]*spanSide{newSpanSide(false), newSpanSide(true)}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for ops := 0; len(data) > 0 && ops < 200; ops++ {
		switch next() % 6 {
		case 0:
			n, class, base := next()%6, next()%5, next()
			durClass, durN := next()%3, next()
			spans := make([]Span, n)
			spread := Duration(0)
			for i := range spans {
				var d Duration
				switch class {
				case 0:
				case 1:
					d = spanDelay(2, base) // equal delays
				default:
					d = spanDelay(class-1, next())
				}
				spread = max(spread, d)
				spans[i] = Span{D: d, X: float64(next() % 3)}
			}
			var dur Duration
			switch durClass {
			case 1:
				dur = spread / Duration(2+durN%4)
			case 2:
				dur = Millisecond + Duration(durN)*Microsecond
			}
			hs := next()
			for _, sd := range sides {
				sd.spans = append(sd.spans[:0], spans...)
				for i := range sd.spans {
					sd.spans[i].H = sd.hs[(hs+i)%len(sd.hs)]
				}
				sd.s.ScheduleSpans(sd.spans, dur, kindSpanBegin, kindSpanEnd, nil)
			}
		case 1:
			d, h := spanDelay(next(), next()), next()
			for _, sd := range sides {
				sd.s.ScheduleEvent(d, sd.hs[h%len(sd.hs)], 1, nil, 0)
			}
		case 2:
			j, d := next(), spanDelay(next(), next())
			for _, sd := range sides {
				sd.timers[j%len(sd.timers)].Start(d)
			}
		case 3:
			j := next()
			for _, sd := range sides {
				sd.timers[j%len(sd.timers)].Stop()
			}
		case 4:
			if a, b := sides[0].s.Step(), sides[1].s.Step(); a != b {
				t.Fatalf("Step = %v on runs, %v on single events", a, b)
			}
		case 5:
			horizon := sides[0].s.Now().Add(spanDelay(next(), next()))
			for _, sd := range sides {
				sd.s.Run(horizon)
			}
		}
		if sides[0].s.Now() != sides[1].s.Now() {
			t.Fatalf("clock %v on runs, %v on single events", sides[0].s.Now(), sides[1].s.Now())
		}
	}
	for _, sd := range sides {
		sd.s.RunAll()
	}
	runs, singles := sides[0], sides[1]
	if len(runs.log) != len(singles.log) {
		t.Fatalf("%d dispatches on runs, %d on single events", len(runs.log), len(singles.log))
	}
	for i := range runs.log {
		if runs.log[i] != singles.log[i] {
			t.Fatalf("dispatch %d: %+v on runs, %+v on single events", i, runs.log[i], singles.log[i])
		}
	}
	if runs.s.Executed() != singles.s.Executed() || runs.s.Executed() != uint64(len(runs.log)) {
		t.Fatalf("executed %d on runs, %d on single events, %d dispatches",
			runs.s.Executed(), singles.s.Executed(), len(runs.log))
	}
}

// TestSpansFireAsSingleEvents checks the run path against the keys
// ScheduleEvent would draw: deliveries listed out of delay order, a
// tie, and a duration shorter than the delay spread, so ends interleave
// with begins and with a plain event filed in between. The "moved" case
// moves half-dispatched runs onto the heap (UseHeap), which must finish
// them in the same order.
func TestSpansFireAsSingleEvents(t *testing.T) {
	logs := map[string][]string{}
	for _, mode := range []string{"events", "runs", "moved"} {
		s := NewScheduler()
		var log []string
		h := func(name string) EventHandler {
			return &namedHandler{name: name, s: s, log: &log}
		}
		spans := []Span{{D: 300, H: h("a"), X: 1}, {D: 100, H: h("b"), X: 2}, {D: 300, H: h("c"), X: 3}, {D: 0, H: h("d"), X: 4}}
		if mode == "events" {
			for _, sp := range spans {
				s.ScheduleEvent(sp.D, sp.H, 1, "tx", sp.X)
				s.ScheduleEvent(sp.D+150, sp.H, 2, "tx", 0)
			}
		} else {
			s.ScheduleSpans(spans, 150, 1, 2, "tx")
		}
		s.ScheduleEvent(250, h("plain"), 9, nil, 0)
		if mode == "runs" && s.Pending() != 3 {
			t.Fatalf("Pending = %d with one span call and one event queued, want 3", s.Pending())
		}
		if mode == "moved" {
			for i := 0; i < 3; i++ {
				s.Step()
			}
			UseHeap(s)
			if s.Pending() != 3 {
				t.Fatalf("Pending = %d after moving two runs and an event to the heap, want 3", s.Pending())
			}
		}
		s.RunAll()
		if s.Executed() != 9 {
			t.Fatalf("%s: executed %d, want 9", mode, s.Executed())
		}
		logs[mode] = log
	}
	for _, mode := range []string{"runs", "moved"} {
		if fmt.Sprint(logs[mode]) != fmt.Sprint(logs["events"]) {
			t.Fatalf("%s dispatched\n%v\nsingle events\n%v", mode, logs[mode], logs["events"])
		}
	}
}

type namedHandler struct {
	name string
	s    *Scheduler
	log  *[]string
}

func (h *namedHandler) HandleEvent(kind int32, arg any, x float64) {
	*h.log = append(*h.log, fmt.Sprintf("%v:%s/%d/%v/%v", h.s.Now(), h.name, kind, arg, x))
}

// TestScheduleSpansRejectsBadDelays: a negative delay, on either filing
// path, a negative duration and a nil handler panic instead of filing
// a misordered run.
func TestScheduleSpansRejectsBadDelays(t *testing.T) {
	h := handlerFunc(func() {})
	for _, tc := range []struct {
		name  string
		spans []Span
		dur   Duration
	}{
		{"negative", []Span{{D: 0, H: h}, {D: -1, H: h}}, 0},
		{"negative-single", []Span{{D: -1, H: h}}, 0},
		{"negative-dur", []Span{{D: 0, H: h}, {D: 1, H: h}}, -1},
		{"nil-handler", []Span{{D: 0, H: h}, {D: 1}}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			defer func() {
				if recover() == nil {
					t.Fatal("ScheduleSpans did not panic")
				}
				if s.Pending() != 0 {
					t.Fatalf("Pending = %d after a rejected call, want 0", s.Pending())
				}
			}()
			s.ScheduleSpans(tc.spans, tc.dur, 1, 2, nil)
		})
	}
}

// TestScheduleSpansFarDelays: the largest delay a packed sort key holds
// files a run; one more nanosecond files the call as single events.
// Both fire in (at, seq) order.
func TestScheduleSpansFarDelays(t *testing.T) {
	for _, tc := range []struct {
		far     Duration
		pending int
	}{
		{math.MaxUint32, 2},
		{math.MaxUint32 + 1, 6},
	} {
		s := NewScheduler()
		var at []Time
		rec := &ptrHandler{fn: func() { at = append(at, s.Now()) }}
		s.ScheduleSpans([]Span{{D: tc.far, H: rec}, {D: 0, H: rec}, {D: 5, H: rec}}, 1, 1, 2, nil)
		if s.Pending() != tc.pending {
			t.Fatalf("delay %d: Pending = %d, want %d", tc.far, s.Pending(), tc.pending)
		}
		s.RunAll()
		far := Time(tc.far)
		if want := []Time{0, 1, 5, 6, far, far + 1}; fmt.Sprint(at) != fmt.Sprint(want) {
			t.Fatalf("delay %d: fired at %v, want %v", tc.far, at, want)
		}
	}
}
