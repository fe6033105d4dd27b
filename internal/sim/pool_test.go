package sim

import "testing"

// recorder collects typed event dispatches.
type recorder struct {
	kinds []int32
	args  []any
	xs    []float64
}

func (r *recorder) HandleEvent(kind int32, arg any, x float64) {
	r.kinds = append(r.kinds, kind)
	r.args = append(r.args, arg)
	r.xs = append(r.xs, x)
}

func TestScheduleEventDispatch(t *testing.T) {
	s := NewScheduler()
	rec := &recorder{}
	payload := &struct{ n int }{42}
	s.ScheduleEvent(5, rec, 7, payload, 2.5)
	s.ScheduleEvent(3, rec, 1, nil, 0)
	s.RunAll()
	if len(rec.kinds) != 2 {
		t.Fatalf("dispatched %d events, want 2", len(rec.kinds))
	}
	// Time order: delay 3 first.
	if rec.kinds[0] != 1 || rec.kinds[1] != 7 {
		t.Fatalf("kinds = %v, want [1 7]", rec.kinds)
	}
	if rec.args[1] != payload || rec.xs[1] != 2.5 {
		t.Fatalf("payload not carried: arg=%v x=%v", rec.args[1], rec.xs[1])
	}
}

// TestScheduleEventTiesWithClosures checks closures and typed events share
// one seq space, so same-instant ordering is schedule order regardless of
// which entry point filed the event.
func TestScheduleEventTiesWithClosures(t *testing.T) {
	s := NewScheduler()
	var order []string
	rec := &ptrHandler{fn: func() { order = append(order, "typed") }}
	s.Schedule(10, func() { order = append(order, "closure1") })
	s.ScheduleEvent(10, rec, 0, nil, 0)
	s.Schedule(10, func() { order = append(order, "closure2") })
	s.RunAll()
	want := []string{"closure1", "typed", "closure2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// ptrHandler is a pointer-receiver EventHandler, the shape production
// handlers (Radio, Timer) have, as opposed to Schedule's funcEvent.
type ptrHandler struct{ fn func() }

func (h *ptrHandler) HandleEvent(int32, any, float64) { h.fn() }

// TestPooledPathsAllocationFree is the free-list contract: after warm-up,
// closures, typed events and Timer churn perform no heap allocation per
// cycle.
func TestPooledPathsAllocationFree(t *testing.T) {
	s := NewScheduler()
	rec := &ptrHandler{fn: func() {}}
	// Warm the pool.
	for i := 0; i < 8; i++ {
		s.ScheduleEvent(1, rec, 0, nil, 0)
	}
	s.RunAll()
	if n := testing.AllocsPerRun(100, func() {
		s.ScheduleEvent(1, rec, 0, nil, 0)
		s.Step()
	}); n != 0 {
		t.Errorf("ScheduleEvent+Step allocates %.1f/op, want 0", n)
	}

	// A pre-built closure: the funcEvent conversion must not box it.
	fn := func() {}
	if n := testing.AllocsPerRun(100, func() {
		s.Schedule(1, fn)
		s.Step()
	}); n != 0 {
		t.Errorf("Schedule+Step allocates %.1f/op, want 0", n)
	}

	tm := NewTimer(s, func() {})
	tm.Start(1)
	s.Step()
	if n := testing.AllocsPerRun(100, func() {
		tm.Start(10)
		tm.Stop()
		tm.Start(1)
		s.Step()
	}); n != 0 {
		t.Errorf("Timer churn allocates %.1f/op, want 0", n)
	}
}

// TestTimerRearmInCallback re-arms the timer from its own expiry
// callback, the pattern backoff loops use; the pooled event must be
// reusable immediately.
func TestTimerRearmInCallback(t *testing.T) {
	s := NewScheduler()
	fired := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		fired++
		if fired < 3 {
			tm.Start(5)
		}
	})
	tm.Start(5)
	s.RunAll()
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	if s.Now() != Time(15) {
		t.Fatalf("clock at %v, want 15ns", s.Now())
	}
}
