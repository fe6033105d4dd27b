package phys

import (
	"testing"

	"repro/internal/sim"
)

// TestRadioOff covers the powered-down (battery death) semantics: an
// off radio transmits nothing, delivers nothing, senses nothing, and
// fires no handler callbacks — while its arrival bookkeeping stays
// consistent so it can be powered back up.
func TestRadioOff(t *testing.T) {
	f := newFixture(t, 0, 100, 200)
	f.rad[1].SetOff(true)

	if tx := f.rad[1].Transmit(0.2818, testBits, sim.Millisecond, "dead"); tx != nil {
		t.Fatalf("off radio transmitted: %v", tx)
	}
	f.rad[0].Transmit(0.2818, testBits, 2*sim.Millisecond, "hello")
	f.sched.RunAll()

	r := f.rec[1]
	if len(r.begins) != 0 || len(r.rx) != 0 || r.busyUps != 0 || r.idleUps != 0 {
		t.Fatalf("off radio saw callbacks: %+v", r)
	}
	if f.rad[1].CarrierBusy() {
		t.Fatal("off radio senses carrier")
	}
	// The live radio at 200 m still decodes normally.
	if len(f.rec[2].rx) != 1 || f.rec[2].rxErr[0] {
		t.Fatalf("live radio rx = %+v", f.rec[2])
	}

	// Power back up: reception works again and the power sums survived
	// the off period.
	f.rad[1].SetOff(false)
	if f.rad[1].TotalPower() != 0 {
		t.Fatalf("stale in-band power %g W after quiet off period", f.rad[1].TotalPower())
	}
	f.rad[0].Transmit(0.2818, testBits, 2*sim.Millisecond, "again")
	f.sched.RunAll()
	if len(r.rx) != 1 || r.rx[0].Payload != "again" {
		t.Fatalf("revived radio rx = %+v", r.rx)
	}
}

// TestRadioOffMidReception: powering off mid-lock aborts the reception
// silently — no RadioRx fires for the killed frame.
func TestRadioOffMidReception(t *testing.T) {
	f := newFixture(t, 0, 100)
	f.rad[0].Transmit(0.2818, testBits, 2*sim.Millisecond, "doomed")
	// Let the leading edge arrive and lock, then kill the receiver.
	f.sched.Run(sim.Time(sim.Millisecond))
	if !receiving(f.rad[1]) {
		t.Fatal("receiver did not lock")
	}
	f.rad[1].SetOff(true)
	if receiving(f.rad[1]) {
		t.Fatal("off radio still locked")
	}
	f.sched.RunAll()
	if len(f.rec[1].rx) != 0 {
		t.Fatalf("killed reception was delivered: %+v", f.rec[1].rx)
	}
}
