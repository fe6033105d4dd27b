package energy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// testProfile has round numbers so every expectation below is
// hand-computable.
func testProfile() Profile {
	return Profile{Name: "test", TxCircuitW: 2, RxW: 1.5, IdleW: 0.5}
}

// advance drains due events and moves the clock d forward.
func advance(t *testing.T, s *sim.Scheduler, d sim.Duration) {
	t.Helper()
	s.Run(s.Now().Add(d))
}

func within(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %.12f, want %.12f (|Δ| > 1e-9)", name, got, want)
	}
}

// TestAccountantClosedForm drives the accountant through a scripted
// CBR-like transition sequence and checks every state bucket against
// hand-computed joules to 1e-9.
func TestAccountantClosedForm(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile()})

	// 1 s idle: 0.5 J.
	advance(t, s, sim.Second)
	// 2 s transmitting at 0.25 W radiated: (2 + 0.25) * 2 = 4.5 J.
	a.TxStart(0.25)
	advance(t, s, 2*sim.Second)
	a.TxEnd()
	// 1 s receiving a frame for us: 1.5 J.
	a.LockStart()
	advance(t, s, sim.Second)
	a.LockEnd(true)
	// 0.5 s sensed-busy without decoding: overhear 0.75 J.
	a.CarrierBusy()
	advance(t, s, sim.Duration(sim.Second/2))
	a.CarrierIdle()
	// 2 s locked on someone else's frame: overhear 3 J.
	a.LockStart()
	advance(t, s, 2*sim.Second)
	a.LockEnd(false)
	// 1 s idle again: total idle 1.0 J.
	advance(t, s, sim.Second)
	a.Flush()

	b := a.Consumed()
	within(t, "idle J", b[Idle], 1.0)
	within(t, "tx J", b[Tx], 4.5)
	within(t, "rx J", b[Rx], 1.5)
	within(t, "overhear J", b[Overhear], 3.75)
	within(t, "off J", b[Off], 0)
	within(t, "total J", a.ConsumedJ(), 1.0+4.5+1.5+3.75)

	within(t, "idle s", a.StateSeconds(Idle), 2.0)
	within(t, "tx s", a.StateSeconds(Tx), 2.0)
	within(t, "rx s", a.StateSeconds(Rx), 1.0)
	within(t, "overhear s", a.StateSeconds(Overhear), 2.5)
}

// TestAccountantAbortedLockIsOverhearing checks the half-duplex case:
// a lock killed by our own transmission is reclassified as overhearing.
func TestAccountantAbortedLockIsOverhearing(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile()})

	a.LockStart()
	advance(t, s, sim.Second) // 1 s locked: provisionally Rx
	a.TxStart(0.5)            // transmit kills the reception
	advance(t, s, sim.Second)
	a.TxEnd()
	a.Flush()

	b := a.Consumed()
	within(t, "rx J", b[Rx], 0)
	within(t, "overhear J", b[Overhear], 1.5)
	within(t, "tx J", b[Tx], 2.5)
}

// TestAccountantBatteryDeathExact requires depletion at the closed-form
// instant: capacity / draw, with the death callback firing exactly once.
func TestAccountantBatteryDeathExact(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 1.0})
	deaths := 0
	a.Battery().OnDeath = func() { deaths++ }

	// Pure idle at 0.5 W: death at exactly 2 s.
	s.Run(sim.Time(10 * sim.Second))
	a.Flush()

	if !a.Dead() || deaths != 1 {
		t.Fatalf("dead=%v deaths=%d, want dead once", a.Dead(), deaths)
	}
	at, _ := a.DiedAt()
	within(t, "death time s", at.Seconds(), 2.0)
	within(t, "consumed J", a.ConsumedJ(), 1.0)
	within(t, "residual J", a.ResidualJ(), 0)
	// After death the radio draws nothing: 8 s in Off adds no joules.
	within(t, "off s", a.StateSeconds(Off), 8.0)
}

// TestAccountantDeathDeferredToTxEnd: a battery that empties mid-frame
// dies at the frame boundary, not mid-air.
func TestAccountantDeathDeferredToTxEnd(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 1.0})
	var diedAt sim.Time
	a.Battery().OnDeath = func() { diedAt = s.Now() }

	// 2 W circuit draw: depletion predicted at 0.5 s, but the frame
	// runs a full second.
	a.TxStart(0)
	s.Schedule(sim.Second, a.TxEnd)
	s.Run(sim.Time(3 * sim.Second))
	a.Flush()

	if !a.Dead() {
		t.Fatal("not dead")
	}
	within(t, "death at tx end", diedAt.Seconds(), 1.0)
	// The frame completed: the full 2 J of draw is accounted even
	// though the battery held only 1 J (brown-out overdraw).
	within(t, "tx J", a.Consumed()[Tx], 2.0)
	within(t, "residual", a.ResidualJ(), 0)
}

// TestAccountantSetCapacity retrofits a battery mid-run (the per-node
// asymmetric-battery hook used by the re-route test).
func TestAccountantSetCapacity(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile()})
	advance(t, s, 2*sim.Second) // 1 J consumed, mains-powered
	if a.Battery().CapacityJ() != 0 || a.Dead() {
		t.Fatal("unexpected battery")
	}
	a.SetCapacity(0.25) // half a second of idle draw left
	deaths := 0
	a.Battery().OnDeath = func() { deaths++ }
	s.Run(sim.Time(5 * sim.Second))
	a.Flush()
	if deaths != 1 {
		t.Fatalf("deaths = %d", deaths)
	}
	at, _ := a.DiedAt()
	within(t, "retrofit death", at.Seconds(), 2.5)
}

// TestAccountantNoBatteryNoEvents: without a battery the accountant
// must not schedule anything — it is a pure observer.
func TestAccountantNoBatteryNoEvents(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile()})
	a.TxStart(0.1)
	a.TxEnd()
	a.LockStart()
	a.LockEnd(true)
	a.CarrierBusy()
	a.CarrierIdle()
	before := s.Executed()
	s.RunAll()
	if got := s.Executed() - before; got != 0 {
		t.Fatalf("accountant scheduled %d events without a battery", got)
	}
}

func TestParseProfile(t *testing.T) {
	def, err := ParseProfile("")
	if err != nil || def.Name != "wavelan" {
		t.Fatalf("default profile = %+v, %v", def, err)
	}
	for _, name := range Profiles() {
		p, err := ParseProfile(name)
		if err != nil || p.Name != name {
			t.Fatalf("profile %q = %+v, %v", name, p, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseProfile("nuclear"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestBreakdown(t *testing.T) {
	var b Breakdown
	b[Tx] = 1
	b[Idle] = 2
	var sum Breakdown
	sum.AddFrom(b)
	sum.AddFrom(b)
	if sum.Total() != 6 {
		t.Fatalf("total = %g", sum.Total())
	}
	if Tx.String() != "tx" || Overhear.String() != "overhear" {
		t.Fatalf("state names: %v %v", Tx, Overhear)
	}
}

// TestSharedBatteryTwoRadios: a PCMAC-style node whose data and control
// radios drain one pack. Combined idle draw is 1.0 W, so a 2 J battery
// dies at exactly 2 s — half the lifetime a single radio would get —
// and both accountants go Off together.
func TestSharedBatteryTwoRadios(t *testing.T) {
	s := sim.NewScheduler()
	data := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 2.0})
	ctrl := NewAccountant(s, Config{Profile: testProfile(), Battery: data.Battery()})
	if ctrl.Battery() != data.Battery() {
		t.Fatal("batteries not shared")
	}
	deaths := 0
	data.Battery().OnDeath = func() { deaths++ }

	s.Run(sim.Time(5 * sim.Second))
	data.Flush()
	ctrl.Flush()

	if deaths != 1 || !data.Dead() || !ctrl.Dead() {
		t.Fatalf("deaths=%d dataDead=%v ctrlDead=%v", deaths, data.Dead(), ctrl.Dead())
	}
	at, _ := data.DiedAt()
	within(t, "shared death", at.Seconds(), 2.0)
	within(t, "data idle J", data.Consumed()[Idle], 1.0)
	within(t, "ctrl idle J", ctrl.Consumed()[Idle], 1.0)
	within(t, "residual", data.Battery().ResidualJ(), 0)
}

// TestSharedBatteryDeferredDeathWaitsForTx: with one radio mid-frame at
// depletion, death lands when *that* radio's frame ends, and the other
// radio's transitions do not trigger it early.
func TestSharedBatteryDeferredDeathWaitsForTx(t *testing.T) {
	s := sim.NewScheduler()
	data := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 1.0})
	ctrl := NewAccountant(s, Config{Profile: testProfile(), Battery: data.Battery()})
	var diedAt sim.Time
	data.Battery().OnDeath = func() { diedAt = s.Now() }

	// Data radio transmits 1 s at 2 W circuit; ctrl idles at 0.5 W.
	// Combined 2.5 W empties the 1 J pack at 0.4 s, mid-frame.
	data.TxStart(0)
	s.Schedule(sim.Duration(sim.Second/2), ctrl.CarrierBusy) // ctrl transition mid-defer
	s.Schedule(sim.Second, data.TxEnd)
	s.Run(sim.Time(3 * sim.Second))

	if !data.Dead() || !ctrl.Dead() {
		t.Fatalf("dead = %v/%v", data.Dead(), ctrl.Dead())
	}
	within(t, "deferred shared death", diedAt.Seconds(), 1.0)
}

// TestSharedBatteryRearmSettlesSiblings is the regression test for the
// stale-residual prediction bug: a transition on one accountant must
// not re-predict death from a residual that ignores the other drain's
// unaccrued consumption. Two radios idle at 0.5 W each on a 2 J pack
// die at exactly 2 s, even when one radio transitions (without
// changing its draw) at 1.5 s.
func TestSharedBatteryRearmSettlesSiblings(t *testing.T) {
	s := sim.NewScheduler()
	data := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 2.0})
	ctrl := NewAccountant(s, Config{Profile: testProfile(), Battery: data.Battery()})
	_ = ctrl
	var diedAt sim.Time
	data.Battery().OnDeath = func() { diedAt = s.Now() }

	// A draw-neutral transition on the data accountant only: before the
	// fix, rearm computed residual without ctrl's 0.75 J accrued since
	// t=0 and predicted death at 2.75 s.
	s.Schedule(sim.Duration(3*sim.Second/2), func() {
		data.CarrierBusy()
		data.CarrierIdle()
	})
	s.Run(sim.Time(5 * sim.Second))

	if !data.Dead() {
		t.Fatal("not dead")
	}
	within(t, "settled shared death", diedAt.Seconds(), 2.0)
}

// TestSetCapacityCancelsPendingDeath: recharging during the
// mid-transmission death-deferral window rescinds the deferred death —
// the node must survive the frame boundary with its fresh charge.
func TestSetCapacityCancelsPendingDeath(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 1.0})
	deaths := 0
	a.Battery().OnDeath = func() { deaths++ }

	// 2 W circuit draw empties the 1 J pack at 0.5 s, mid-frame;
	// recharge at 0.75 s, frame ends at 1 s.
	a.TxStart(0)
	s.Schedule(sim.Duration(3*sim.Second/4), func() { a.SetCapacity(10) })
	s.Schedule(sim.Second, a.TxEnd)
	s.Run(sim.Time(2 * sim.Second))
	a.Flush()

	if deaths != 0 || a.Dead() {
		t.Fatalf("recharged node died: deaths=%d dead=%v", deaths, a.Dead())
	}
	// 10 J minus the 0.5 J of TX draw after the recharge and 1 s idle.
	within(t, "recharged residual", a.ResidualJ(), 10-2*0.25-0.5*1)
}

// TestSetCapacityZeroReturnsToMains: setting a battery's capacity to
// zero puts the node on mains. A later state edge must not predict a
// death from the empty pack; consumption keeps accruing.
func TestSetCapacityZeroReturnsToMains(t *testing.T) {
	s := sim.NewScheduler()
	a := NewAccountant(s, Config{Profile: testProfile(), CapacityJ: 100})
	deaths := 0
	a.Battery().OnDeath = func() { deaths++ }

	s.Schedule(sim.Second, func() { a.SetCapacity(0) })
	s.Schedule(2*sim.Second, a.CarrierBusy)
	s.Run(sim.Time(10 * sim.Second))
	a.Flush()

	if deaths != 0 || a.Dead() {
		t.Fatalf("mains node died: deaths=%d dead=%v", deaths, a.Dead())
	}
	if _, ok := a.DiedAt(); ok {
		t.Fatal("DiedAt reports a death")
	}
	within(t, "residual", a.ResidualJ(), 0)
	// 2 s idle at 0.5 W, then 8 s sensed-busy at 1.5 W.
	within(t, "idle J", a.Consumed()[Idle], 1.0)
	within(t, "overhear J", a.Consumed()[Overhear], 12.0)
}

// TestSetCapacityMetersEveryDrain: a capacity set on a shared battery
// meters every accountant drawing from it, in both directions: back to
// mains and on again. Death lands at the closed-form instant of the
// summed draw.
func TestSetCapacityMetersEveryDrain(t *testing.T) {
	s := sim.NewScheduler()
	data := NewAccountant(s, Config{Profile: testProfile()})
	ctrl := NewAccountant(s, Config{Profile: testProfile(), Battery: data.Battery()})
	bat := data.Battery()
	var diedAt sim.Time
	deaths := 0
	bat.OnDeath = func() { diedAt = s.Now(); deaths++ }

	s.Schedule(sim.Second, func() { bat.SetCapacity(50) })
	s.Schedule(2*sim.Second, func() { bat.SetCapacity(0) })
	s.Schedule(3*sim.Second, data.CarrierBusy)
	s.Schedule(4*sim.Second, func() { bat.SetCapacity(50) })
	s.Run(sim.Time(40 * sim.Second))

	if deaths != 1 || !data.Dead() || !ctrl.Dead() {
		t.Fatalf("deaths=%d dataDead=%v ctrlDead=%v", deaths, data.Dead(), ctrl.Dead())
	}
	// From 4 s both radios drain the 50 J pack: 1.5 W sensed-busy plus
	// 0.5 W idle empties it in 25 s.
	within(t, "shared death", diedAt.Seconds(), 29.0)
}
