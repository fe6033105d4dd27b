package phys_test

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/phys"
	"repro/internal/sim"
)

type nopHandler struct{}

func (nopHandler) RadioRxBegin(*phys.Transmission, float64)  {}
func (nopHandler) RadioRx(*phys.Transmission, float64, bool) {}
func (nopHandler) RadioCarrierBusy()                         {}
func (nopHandler) RadioCarrierIdle()                         {}
func (nopHandler) RadioTxDone(*phys.Transmission)            {}

// TestRadioMetersLockOutcome drives a real accountant from a radio's
// state edges and checks where each kind of reception's time lands: a
// clean frame for us is Rx, and everything else the receive chain
// listened to (someone else's frame, a lock our own transmission
// killed, an arrival too weak to lock) is Overhear.
func TestRadioMetersLockOutcome(t *testing.T) {
	const (
		txPowerW = 0.2818
		frame    = 2 * sim.Millisecond
	)
	cases := []struct {
		name    string
		dist    float64 // sender to metered receiver, metres
		payload string
		// interrupt, when positive, makes the receiver transmit a
		// 0.5 ms frame of its own this far into the arrival.
		interrupt   sim.Duration
		rx, ovh, tx float64 // expected seconds per state
	}{
		{name: "for-us", dist: 100, payload: "us", rx: 0.002},
		{name: "for-other", dist: 100, payload: "other", ovh: 0.002},
		// Lock from d to 1 ms, killed; own tx to 1.5 ms; the arrival
		// is still sensed until 2 ms + d: 1.5 ms of overhearing.
		{name: "killed-lock", dist: 100, payload: "us", interrupt: sim.Millisecond, ovh: 0.0015, tx: 0.0005},
		// 300 m: inside carrier sense, beyond decode range.
		{name: "sensed-only", dist: 300, payload: "us", ovh: 0.002},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			par := phys.DefaultParams()
			ch := phys.NewChannel(sched, phys.NewTwoRayGround(par), par)
			at := func(x float64) func() geom.Point { return func() geom.Point { return geom.Point{X: x} } }
			src := ch.AttachRadio(0, at(0), nopHandler{})
			dst := ch.AttachRadio(1, at(c.dist), nopHandler{})
			acct := energy.NewAccountant(sched, energy.Config{})
			dst.SetAccountant(acct, func(p any) bool { return p == "us" })

			src.Transmit(txPowerW, 512*8, frame, c.payload)
			if c.interrupt > 0 {
				sched.Schedule(c.interrupt, func() { dst.Transmit(txPowerW, 128*8, frame/4, "reply") })
			}
			sched.RunAll()
			acct.Flush()

			for _, s := range []struct {
				state energy.State
				want  float64
			}{{energy.Rx, c.rx}, {energy.Overhear, c.ovh}, {energy.Tx, c.tx}} {
				if got := acct.StateSeconds(s.state); math.Abs(got-s.want) > 1e-12 {
					t.Errorf("%v = %.9f s, want %.9f s", s.state, got, s.want)
				}
			}
		})
	}
}
