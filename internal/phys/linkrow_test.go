package phys

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// countingHandler tallies begin-arrival deliveries.
type countingHandler struct{ begins int }

func (h *countingHandler) RadioRxBegin(*Transmission, float64)  { h.begins++ }
func (h *countingHandler) RadioRx(*Transmission, float64, bool) {}
func (h *countingHandler) RadioCarrierBusy()                    {}
func (h *countingHandler) RadioCarrierIdle()                    {}
func (h *countingHandler) RadioTxDone(*Transmission)            {}

// TestLinkRowInvalidatedByAttach pins the attachGen invalidation: a
// radio attached after a link row was built (and cached on a pinned
// channel) must still hear subsequent frames.
func TestLinkRowInvalidatedByAttach(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	ch.SetMaxSpeed(0) // static world

	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
	hb := &countingHandler{}
	ch.AttachRadio(1, func() geom.Point { return geom.Point{X: 100} }, hb)

	// Build and use the row once.
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("first frame: b heard %d begins, want 1", hb.begins)
	}

	// Late joiner inside decode range must invalidate the cached row.
	hc := &countingHandler{}
	ch.AttachRadio(2, func() geom.Point { return geom.Point{X: 0, Y: 120} }, hc)
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hc.begins != 1 {
		t.Fatalf("late joiner heard %d begins, want 1", hc.begins)
	}
	if hb.begins != 2 {
		t.Fatalf("b heard %d begins total, want 2", hb.begins)
	}
}

// TestLinkRowEpochInvalidation moves a node between frames on the two
// channel modes that rebuild rows per frame and checks deliveries follow
// the new geometry: with no motion promise b may jump at once; under a
// motion bound it jumps only as far as the elapsed time allows, which
// also exercises the grid's drift handling.
func TestLinkRowEpochInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxSpeed float64
		wait     float64 // simulated seconds between the two frames
	}{
		{"no-promise", -1, 0},
		{"bounded-motion", 50, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, NewTwoRayGround())
			ch.SetMaxSpeed(tc.maxSpeed)

			pos := geom.Point{X: 100} // in decode range of the max power level
			a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
			hb := &countingHandler{}
			ch.AttachRadio(1, func() geom.Point { return pos }, hb)

			a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
			sched.RunAll()
			if hb.begins != 1 {
				t.Fatalf("in range: %d begins, want 1", hb.begins)
			}

			// Move b out of even carrier-sense range: the next frame's
			// row must follow and drop the delivery.
			sched.Schedule(sim.DurationOf(tc.wait), func() {})
			sched.RunAll()
			pos = geom.Point{X: 4000}
			a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
			sched.RunAll()
			if hb.begins != 1 {
				t.Fatalf("after move: %d begins, want still 1", hb.begins)
			}
			if n := CachedRows(ch); n != 0 {
				t.Fatalf("channel that is not pinned cached %d rows", n)
			}
		})
	}
}
