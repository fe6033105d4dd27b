package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.Schedule(30*Microsecond, func() { got = append(got, 3) })
	s.Schedule(10*Microsecond, func() { got = append(got, 1) })
	s.Schedule(20*Microsecond, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*Microsecond, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewScheduler()
	s.Schedule(7*Millisecond, func() {
		if s.Now() != Time(7*Millisecond) {
			t.Errorf("Now() = %v inside event, want 7ms", s.Now())
		}
	})
	s.RunAll()
	if s.Now() != Time(7*Millisecond) {
		t.Fatalf("final Now() = %v, want 7ms", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Start(Millisecond)
	tm.Stop()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0", s.Pending())
	}
	s.RunAll()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Pending() {
		t.Fatal("stopped timer still pending")
	}
}

func TestCancelFromInsideEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	victim := NewTimer(s, func() { fired = true })
	s.Schedule(Microsecond, victim.Stop)
	victim.Start(2 * Microsecond)
	s.RunAll()
	if fired {
		t.Fatal("timer stopped by an earlier event still fired")
	}
}

func TestScheduleInsidePanicsOnPast(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	s.Schedule(Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		tm.StartAt(Time(Microsecond))
	})
	s.RunAll()
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestRunHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []Duration{Second, 2 * Second, 3 * Second} {
		d := d
		s.Schedule(d, func() { fired = append(fired, s.Now()) })
	}
	s.Run(Time(2 * Second))
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != Time(2*Second) {
		t.Fatalf("clock at %v after Run, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	// The remaining event still runs on a later horizon.
	s.Run(Time(5 * Second))
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if s.Now() != Time(5*Second) {
		t.Fatalf("clock at %v, want horizon 5s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 0; i < 10; i++ {
		s.Schedule(Duration(i)*Microsecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.RunAll()
	if count != 3 {
		t.Fatalf("executed %d events after Stop, want 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("pending = %d after Stop, want 7", s.Pending())
	}
}

func TestEventsScheduledByEvents(t *testing.T) {
	// A chain of events each scheduling the next must run to completion
	// in order — the core pattern of every protocol state machine here.
	s := NewScheduler()
	const n = 1000
	count := 0
	var step func()
	step = func() {
		count++
		if count < n {
			s.Schedule(Microsecond, step)
		}
	}
	s.Schedule(Microsecond, step)
	s.RunAll()
	if count != n {
		t.Fatalf("chain executed %d steps, want %d", count, n)
	}
	if s.Now() != Time(n*Microsecond) {
		t.Fatalf("clock = %v, want %dus", s.Now(), n)
	}
}

func TestTimerBasics(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Pending() {
		t.Fatal("new timer pending")
	}
	tm.Start(Millisecond)
	if !tm.Pending() {
		t.Fatal("started timer not pending")
	}
	if tm.Deadline() != Time(Millisecond) {
		t.Fatalf("deadline = %v, want 1ms", tm.Deadline())
	}
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Pending() {
		t.Fatal("expired timer still pending")
	}
}

func TestTimerRestartReplaces(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Start(Millisecond)
	tm.Start(2 * Millisecond) // must replace, not add
	// A battery re-arms its death timer on every radio edge, at
	// deadlines far past the calendar's year. Each re-arm must take the
	// old event out, not strand it in the overflow ladder.
	cal := s.q.(*calendarQueue)
	for i := 0; i < 100_000; i++ {
		tm.Start(1000*Second + Duration(i%977)*Millisecond)
		if !tm.Pending() || s.Pending() != 1 || len(cal.ladder) != 1 {
			t.Fatalf("re-arm %d: pending=%v queue=%d ladder=%d; want one queued item",
				i, tm.Pending(), s.Pending(), len(cal.ladder))
		}
	}
	tm.Start(2 * Millisecond)
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d after restart, want 1", fired)
	}
	if s.Now() != Time(2*Millisecond) {
		t.Fatalf("fired at %v, want 2ms", s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Start(Millisecond)
	tm.Stop()
	tm.Stop() // idempotent
	s.RunAll()
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	// Reusable after Stop.
	tm.Start(Millisecond)
	s.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d after re-arm, want 1", fired)
	}
}

func TestTimerRemaining(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	tm.Start(10 * Microsecond)
	s.Schedule(4*Microsecond, func() {
		if got := tm.Deadline().Sub(s.Now()); got != 6*Microsecond {
			t.Errorf("remaining = %v, want 6us", got)
		}
	})
	s.RunAll()
}

func TestTimerDeadlinePanicsWhenIdle(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Deadline on idle timer did not panic")
		}
	}()
	tm.Deadline()
}

func TestTimerStartAt(t *testing.T) {
	s := NewScheduler()
	var at Time
	tm := NewTimer(s, func() { at = s.Now() })
	tm.StartAt(Time(42 * Microsecond))
	s.RunAll()
	if at != Time(42*Microsecond) {
		t.Fatalf("fired at %v, want 42us", at)
	}
}

func TestDurationConversions(t *testing.T) {
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Errorf("Milliseconds = %v, want 2.5", got)
	}
	if got := DurationOf(0.000352); got != 352*Microsecond {
		t.Errorf("DurationOf(352us) = %v, want 352000", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3.0 {
		t.Errorf("Time.Seconds = %v, want 3", got)
	}
	if got := Time(Second).Add(Millisecond); got != Time(Second+Millisecond) {
		t.Errorf("Add = %v", got)
	}
	if got := Time(Second).Sub(Time(Millisecond)); got != Second-Millisecond {
		t.Errorf("Sub = %v", got)
	}
	if s := Time(1500 * Millisecond).String(); s != "1.500000s" {
		t.Errorf("String = %q", s)
	}
}

// Property: for any batch of random delays, events fire in nondecreasing
// time order and the executed count matches the scheduled count.
func TestPropertyOrderedExecution(t *testing.T) {
	f := func(delaysRaw []uint32) bool {
		if len(delaysRaw) > 500 {
			delaysRaw = delaysRaw[:500]
		}
		s := NewScheduler()
		var fireTimes []Time
		for _, raw := range delaysRaw {
			d := Duration(raw % 1_000_000_000)
			s.Schedule(d, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.RunAll()
		if len(fireTimes) != len(delaysRaw) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers never perturbs the
// relative order of the survivors and exactly the survivors fire.
func TestPropertyCancelSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 30; iter++ {
		s := NewScheduler()
		const n = 200
		timers := make([]*Timer, n)
		var order []int
		for i := 0; i < n; i++ {
			i := i
			timers[i] = NewTimer(s, func() { order = append(order, i) })
			timers[i].Start(Duration(rng.Intn(1000)) * Microsecond)
		}
		cancelled := make([]bool, n)
		var want []int
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				timers[i].Stop()
				cancelled[i] = true
			} else {
				want = append(want, i)
			}
		}
		// Survivors fire in (deadline, start order).
		sort.SliceStable(want, func(a, b int) bool {
			return timers[want[a]].Deadline() < timers[want[b]].Deadline()
		})
		s.RunAll()
		if len(order) != len(want) {
			t.Fatalf("iter %d: %d timers fired, want %d", iter, len(order), len(want))
		}
		for k, i := range order {
			if cancelled[i] || i != want[k] {
				t.Fatalf("iter %d: fire %d was timer %d (cancelled=%v), want timer %d", iter, k, i, cancelled[i], want[k])
			}
		}
	}
}

func TestExecutedCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.Schedule(Duration(i), func() {})
	}
	s.RunAll()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
}

func BenchmarkSchedulerFanOut(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	delays := make([]Duration, 1024)
	for i := range delays {
		delays[i] = Duration(rng.Intn(1_000_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for _, d := range delays {
			s.Schedule(d, func() {})
		}
		s.RunAll()
	}
}
