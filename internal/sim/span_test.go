package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
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
// so both sides of a diff can be driven with the same op stream. The
// reference side (single) files every span call as single events.
type spanSide struct {
	s      *Scheduler
	single bool
	log    []dispatch
	hs     []*spanHandler
	timers []*Timer
	spans  []Span
}

// file files a span call on the side's scheduler: one ScheduleSpans
// call, or on the reference side the ScheduleEvent pairs, in ascending
// O, that ScheduleSpans promises to match.
func (sd *spanSide) file(spans []Span, dur Duration) {
	if !sd.single {
		sd.s.ScheduleSpans(spans, dur, kindSpanBegin, kindSpanEnd, nil)
		return
	}
	byO := slices.Clone(spans)
	slices.SortFunc(byO, func(a, b Span) int { return cmp.Compare(a.O, b.O) })
	for _, sp := range byO {
		sd.s.ScheduleEvent(sp.D, sp.H, kindSpanBegin, nil, sp.X)
		sd.s.ScheduleEvent(sp.D+dur, sp.H, kindSpanEnd, nil, 0)
	}
}

// ordinals returns n distinct span ordinals in the order code selects:
// code mod n! numbers the permutation, and code / n! sets the gap
// between consecutive ordinals (1 to 3), so ties can be broken in any
// order and the ordinal range has holes.
func ordinals(n, code int) []uint32 {
	fact := 1
	for i := 2; i <= n; i++ {
		fact *= i
	}
	gap := 1 + code/fact%3
	pool := make([]uint32, n)
	for i := range pool {
		pool[i] = uint32((i+1)*gap - 1)
	}
	out := make([]uint32, 0, n)
	for c, k := code%fact, n; k > 0; k-- {
		j := c % k
		c /= k
		out = append(out, pool[j])
		pool = slices.Delete(pool, j, j+1)
	}
	return out
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
	ords := ordinals(n, h.id*7+int(sd.s.Now()))
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = Span{
			D: Duration((h.id*7 + i*13) % 5 * 300),
			O: ords[i],
			H: sd.hs[(h.id+i)%len(sd.hs)],
			X: x - 1,
		}
	}
	sd.file(spans, Duration(h.id%3)*400)
}

func newSpanSide(single bool) *spanSide {
	sd := &spanSide{s: NewScheduler(), single: single}
	if single {
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
// heap after UseHeap, filing every span call as ScheduleEvent pairs in
// ascending ordinal. Ops file spans (0-5 of them, with delays all 0,
// all equal, sub-µs, µs or ms apart, permuted and gapped ordinals, and
// durations of 0, shorter than the delay spread, or a frame time), file
// plain events, start and stop timers, Step, and Run to a partial
// horizon; handlers file nested spans when dispatched. Both sides must
// dispatch the same (now, handler, kind, x) stream and execute the same
// event count.
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
			ords := ordinals(n, hs)
			for _, sd := range sides {
				sd.spans = append(sd.spans[:0], spans...)
				for i := range sd.spans {
					sd.spans[i].O = ords[i]
					sd.spans[i].H = sd.hs[(hs+i)%len(sd.hs)]
				}
				sd.file(sd.spans, dur)
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
		spans := []Span{{D: 300, O: 0, H: h("a"), X: 1}, {D: 100, O: 1, H: h("b"), X: 2}, {D: 300, O: 2, H: h("c"), X: 3}, {D: 0, O: 3, H: h("d"), X: 4}}
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

// TestScheduleSpansOrdinalOrder pins the tie-break rule: deliveries
// listed in an order unrelated to their ordinals, with a hole in the
// ordinal range, fire exactly as ScheduleEvent pairs filed in ascending
// ordinal, and at a shared instant the lower ordinal goes first. An
// event filed after the call at the same instant as every begin fires
// after all of them.
func TestScheduleSpansOrdinalOrder(t *testing.T) {
	logs := map[string][]string{}
	for _, mode := range []string{"events", "runs"} {
		s := NewScheduler()
		var log []string
		h := func(name string) EventHandler {
			return &namedHandler{name: name, s: s, log: &log}
		}
		spans := []Span{
			{D: 100, O: 7, H: h("w"), X: 1},
			{D: 100, O: 2, H: h("x"), X: 2},
			{D: 50, O: 9, H: h("y"), X: 3},
			{D: 100, O: 4, H: h("z"), X: 4},
		}
		if mode == "events" {
			for _, i := range []int{1, 3, 0, 2} { // ascending O
				sp := spans[i]
				s.ScheduleEvent(sp.D, sp.H, 1, nil, sp.X)
				s.ScheduleEvent(sp.D+10, sp.H, 2, nil, 0)
			}
		} else {
			s.ScheduleSpans(spans, 10, 1, 2, nil)
		}
		s.ScheduleEvent(100, h("after"), 9, nil, 0)
		s.RunAll()
		logs[mode] = log
	}
	if fmt.Sprint(logs["runs"]) != fmt.Sprint(logs["events"]) {
		t.Fatalf("runs dispatched\n%v\nsingle events in ascending O\n%v", logs["runs"], logs["events"])
	}
	var names []string
	for _, l := range logs["runs"] {
		_, name, _ := strings.Cut(l, ":")
		names = append(names, name)
	}
	want := "y/1/<nil>/3 y/2/<nil>/0 x/1/<nil>/2 z/1/<nil>/4 w/1/<nil>/1 after/9/<nil>/0 x/2/<nil>/0 z/2/<nil>/0 w/2/<nil>/0"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("dispatch order\n%s\nwant\n%s", got, want)
	}
}

// TestScheduleSpansRejectsBadDelays: a negative delay, in a call of one
// span or several, a negative duration, a nil handler and a repeated
// ordinal panic instead of filing a misordered run, and leave the
// scheduler fit to file the next call.
func TestScheduleSpansRejectsBadDelays(t *testing.T) {
	h := handlerFunc(func() {})
	for _, tc := range []struct {
		name  string
		spans []Span
		dur   Duration
	}{
		{"negative", []Span{{D: 0, H: h}, {D: -1, O: 1, H: h}}, 0},
		{"negative-single", []Span{{D: -1, H: h}}, 0},
		{"negative-dur", []Span{{D: 0, H: h}, {D: 1, O: 1, H: h}}, -1},
		{"nil-handler", []Span{{D: 0, H: h}, {D: 1, O: 1}}, 0},
		{"repeated-ordinal", []Span{{D: 0, O: 3, H: h}, {D: 1, O: 5, H: h}, {D: 2, O: 3, H: h}}, 0},
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
				s.ScheduleSpans([]Span{{D: 0, O: 3, H: h}, {D: 1, O: 5, H: h}}, 0, 1, 2, nil)
				s.RunAll()
				if s.Executed() != 4 {
					t.Fatalf("executed %d after a valid call following a rejected one, want 4", s.Executed())
				}
			}()
			s.ScheduleSpans(tc.spans, tc.dur, 1, 2, nil)
		})
	}
}

// TestScheduleSpansFarDelays: the largest delay a packed sort key holds
// files a run that fires in (at, seq) order; one more nanosecond
// panics before anything is filed. Scenario validation rejects the
// layouts whose links would take that long.
func TestScheduleSpansFarDelays(t *testing.T) {
	s := NewScheduler()
	var at []Time
	rec := &ptrHandler{fn: func() { at = append(at, s.Now()) }}
	s.ScheduleSpans([]Span{{D: MaxSpanDelay, O: 0, H: rec}, {D: 0, O: 1, H: rec}, {D: 5, O: 2, H: rec}}, 1, 1, 2, nil)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want one entry per run half", s.Pending())
	}
	s.RunAll()
	far := Time(MaxSpanDelay)
	if want := []Time{0, 1, 5, 6, far, far + 1}; fmt.Sprint(at) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a delay above MaxSpanDelay did not panic")
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending = %d after a rejected call, want 0", s.Pending())
		}
	}()
	s.ScheduleSpans([]Span{{D: 0, O: 0, H: rec}, {D: MaxSpanDelay + 1, O: 1, H: rec}}, 1, 1, 2, nil)
}
