package mac

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestEIFSDeferAfterSensedFrame: a node that senses (but cannot decode)
// a frame must defer EIFS — not just DIFS — before its own
// transmission. C sits in A's carrier-sensing ring (250..550 m), hears
// A's RTS as noise, and must hold off accordingly.
func TestEIFSDeferAfterSensedFrame(t *testing.T) {
	// A(0) -> B(100). C(400) senses A's max-power frames but decodes
	// none of them. D(580) is C's peer (180 m away).
	n := newNet(t, Basic, 0, 100, 400, 580)
	// A second sniffer near C/D to catch C's RTS.
	midSniff := &sniffer{}
	mp := pointAt(470, 10)
	n.ch.AttachRadio(60, mp, midSniff)

	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// C's packet arrives mid-RTS, so C is already sensing carrier.
	n.sched.Schedule(200*sim.Microsecond, func() {
		n.macs[2].Enqueue(dataPacket(2, 3, 2), 3)
	})
	n.run(300 * sim.Millisecond)

	rtsEnd := sim.Time(50*sim.Microsecond) + sim.Time(AirTime(packet.RTSBytes, BasicRateBps))
	var cRTS sim.Time
	for i, k := range midSniff.kinds {
		if k == packet.KindRTS && midSniff.srcs[i] == 2 && cRTS == 0 {
			cRTS = midSniff.times[i]
		}
	}
	if cRTS == 0 {
		t.Fatalf("C never transmitted: %v %v", midSniff.kinds, midSniff.srcs)
	}
	// C heard an errored frame ending at rtsEnd, so its transmission
	// cannot begin before rtsEnd + EIFS (backoff can only push later).
	if cRTS < rtsEnd.Add(EIFS()) {
		t.Fatalf("C transmitted at %v, inside EIFS after the sensed frame ending %v", cRTS, rtsEnd)
	}
	if n.macs[2].Stats.RxError == 0 {
		t.Fatal("C never registered the sensed-not-decoded frame")
	}
}

// pointAt returns a position closure (helper for extra radios).
func pointAt(x, y float64) func() geom.Point {
	p := geom.Point{X: x, Y: y}
	return func() geom.Point { return p }
}
