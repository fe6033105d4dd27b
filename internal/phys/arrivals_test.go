package phys

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func arrivalsRig(t *testing.T) (*Radio, []*Transmission) {
	t.Helper()
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	var txs []*Transmission
	for i := 0; i < 4; i++ {
		p := geom.Point{X: float64(100 * (i + 1))}
		r := ch.AttachRadio(i+1, func() geom.Point { return p }, benchHandler{})
		txs = append(txs, &Transmission{
			Seq: uint64(i + 1), From: r, PowerW: 0.2818,
			Bits: 1024, Duration: sim.Millisecond,
		})
	}
	rx := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, benchHandler{})
	return rx, txs
}

// TestArrivalSumsFixedOrder pins the summation contract: TotalPower is
// the incrementally maintained sum in arrival order, Interference is
// that total minus the locked arrival — the same arithmetic every run,
// unlike the old map-iteration sum whose order (and therefore rounding)
// was randomised per run.
func TestArrivalSumsFixedOrder(t *testing.T) {
	rx, txs := arrivalsRig(t)
	p := []float64{3e-7, 1.1e-9, 7.7e-10, 2.3e-10}
	for i, tx := range txs {
		rx.beginArrival(tx, p[i])
	}
	// First arrival locks (strongest, clean channel); rest interfere.
	if !receiving(rx) || lockedPowerW(rx) != p[0] {
		t.Fatalf("locked power = %g, want %g", lockedPowerW(rx), p[0])
	}
	wantTotal := p[0] + p[1] + p[2] + p[3] // incremental, arrival order
	if got := rx.TotalPower(); got != wantTotal {
		t.Errorf("TotalPower = %g, want %g", got, wantTotal)
	}
	if got, want := rx.Interference(), wantTotal-p[0]; got != want {
		t.Errorf("Interference = %g, want %g", got, want)
	}

	// Remove a middle arrival: the remaining sum subtracts exactly the
	// removed power, and the locked index survives the compaction.
	rx.endArrival(txs[2])
	wantTotal -= p[2]
	if got := rx.TotalPower(); got != wantTotal {
		t.Errorf("after end: TotalPower = %g, want %g", got, wantTotal)
	}
	if lockedPowerW(rx) != p[0] {
		t.Errorf("lock lost after unrelated endArrival")
	}

	// Drain everything: the total resets to exactly zero (no rounding
	// residue), so carrier sense cannot drift over long runs.
	rx.endArrival(txs[0])
	rx.endArrival(txs[1])
	rx.endArrival(txs[3])
	if got := rx.TotalPower(); got != 0 {
		t.Errorf("idle TotalPower = %g, want exactly 0", got)
	}
	if receiving(rx) {
		t.Error("still receiving after all arrivals ended")
	}
}

// TestArrivalLockIndexShift ends an arrival that precedes the locked one
// and checks the lock tracks the compacted slice.
func TestArrivalLockIndexShift(t *testing.T) {
	rx, txs := arrivalsRig(t)
	// Weak first arrival (interference only), then a strong lockable one.
	rx.beginArrival(txs[0], 5e-11)
	rx.beginArrival(txs[1], 3e-7)
	if lockedPowerW(rx) != 3e-7 {
		t.Fatalf("locked power = %g, want 3e-7", lockedPowerW(rx))
	}
	rx.endArrival(txs[0]) // shifts the locked arrival to index 0
	if lockedPowerW(rx) != 3e-7 {
		t.Fatalf("lock lost when earlier arrival ended")
	}
	rx.endArrival(txs[1])
	if receiving(rx) || rx.TotalPower() != 0 {
		t.Fatalf("radio not idle after drain")
	}
}

// TestArrivalBookkeepingAllocationFree checks the steady-state arrival
// path performs no heap allocation once the slice has warmed up.
func TestArrivalBookkeepingAllocationFree(t *testing.T) {
	rx, txs := arrivalsRig(t)
	warm := func() {
		for _, tx := range txs {
			rx.beginArrival(tx, 1e-9)
		}
		for _, tx := range txs {
			rx.endArrival(tx)
		}
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Errorf("arrival cycle allocates %.1f/op, want 0", n)
	}
}
