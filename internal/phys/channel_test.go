package phys

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

func TestChannelAccessors(t *testing.T) {
	sched := sim.NewScheduler()
	model := NewTwoRayGround()
	ch := NewChannel(sched, model)
	if ch.Model() != model {
		t.Error("Model mismatch")
	}
	if len(ch.Radios()) != 0 {
		t.Error("fresh channel has radios")
	}
	r := ch.AttachRadio(3, func() geom.Point { return geom.Point{X: 7} }, &recorder{})
	if len(ch.Radios()) != 1 || ch.Radios()[0] != r {
		t.Error("AttachRadio not registered")
	}
	if r.ID() != 3 {
		t.Errorf("radio ID = %d", r.ID())
	}
	if r.Pos() != (geom.Point{X: 7}) {
		t.Errorf("radio Pos = %v", r.Pos())
	}
	if r.Channel() != ch {
		t.Error("radio Channel mismatch")
	}
}

func TestTransmissionMethods(t *testing.T) {
	f := newFixture(t, 0, 100)
	tx := f.rad[0].Transmit(0.2818, testBits, 2*sim.Millisecond, "x")
	if tx.End() != sim.Time(2*sim.Millisecond) {
		t.Errorf("End = %v", tx.End())
	}
	s := tx.String()
	for _, want := range []string{"tx#", "281.8", "r0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if tx.Bits != testBits {
		t.Errorf("Bits = %d", tx.Bits)
	}
	f.sched.RunAll()
}

func TestRadioStateQueries(t *testing.T) {
	f := newFixture(t, 0, 100)
	r := f.rad[0]
	if r.Transmitting() || receiving(r) || r.CarrierBusy() {
		t.Fatal("fresh radio not idle")
	}
	r.Transmit(0.2818, testBits, sim.Millisecond, nil)
	if !r.Transmitting() || !r.CarrierBusy() {
		t.Fatal("transmitting radio reports idle")
	}
	// The receiver is mid-lock halfway through.
	f.sched.Schedule(500*sim.Microsecond, func() {
		if !receiving(f.rad[1]) {
			t.Error("receiver not locked mid-frame")
		}
		if lockedPowerW(f.rad[1]) <= 0 {
			t.Error("locked power zero while locked")
		}
	})
	f.sched.RunAll()
	if r.Transmitting() || receiving(f.rad[1]) {
		t.Fatal("radios busy after the run drained")
	}
}

func TestMobilePositionsSampledPerTransmission(t *testing.T) {
	// A radio whose position function changes between transmissions
	// must radiate from the new place.
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	pos := geom.Point{X: 0}
	rec := &recorder{}
	moving := ch.AttachRadio(0, func() geom.Point { return pos }, &recorder{})
	fixed := geom.Point{X: 100}
	ch.AttachRadio(1, func() geom.Point { return fixed }, rec)

	moving.Transmit(0.2818, testBits, sim.Millisecond, "near")
	sched.RunAll()
	pos = geom.Point{X: 2000} // teleport out of range
	moving.Transmit(0.2818, testBits, sim.Millisecond, "far")
	sched.RunAll()
	if len(rec.rx) != 1 || rec.rx[0].Payload != "near" {
		t.Fatalf("rx = %v, want only the near transmission", rec.rx)
	}
}
