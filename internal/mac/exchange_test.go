package mac

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestCTSNAVProtectsExchange: a node that hears only the receiver's CTS
// (not the sender's RTS) must still defer through the whole exchange.
func TestCTSNAVProtectsExchange(t *testing.T) {
	// A(0) -> B(200). C(420) decodes B's CTS (220 m) but not A's RTS
	// (420 m). C wants to talk to D(620). The default sniffer at x=0
	// cannot decode C's frames, so add one mid-field that hears
	// everyone involved.
	n := newNet(t, Basic, 0, 200, 420, 620)
	mid := &sniffer{}
	mp := geom.Point{X: 210, Y: 10}
	n.ch.AttachRadio(50, func() geom.Point { return mp }, mid)
	n.sniff = mid
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// C's packet arrives while the CTS is about to fly.
	n.sched.Schedule(400*sim.Microsecond, func() {
		n.macs[2].Enqueue(dataPacket(2, 3, 2), 3)
	})
	n.run(300 * sim.Millisecond)
	var ackEnd, cRTS sim.Time
	for i, k := range n.sniff.kinds {
		if k == packet.KindAck && n.sniff.srcs[i] == 1 {
			ackEnd = n.sniff.times[i].Add(AirTime(packet.AckBytes, BasicRateBps))
		}
		if k == packet.KindRTS && n.sniff.srcs[i] == 2 && cRTS == 0 {
			cRTS = n.sniff.times[i]
		}
	}
	if ackEnd == 0 || cRTS == 0 {
		t.Fatalf("missing frames: kinds=%v srcs=%v", n.sniff.kinds, n.sniff.srcs)
	}
	if cRTS < ackEnd {
		t.Fatalf("C transmitted at %v during the exchange ending %v (CTS NAV ignored)", cRTS, ackEnd)
	}
}

// TestReceiverDataTimeoutRecovers: if the CTS is lost at the sender the
// receiver waits out its DATA timeout and the exchange still completes
// on a retry.
func TestReceiverDataTimeoutRecovers(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	// A jammer near A corrupts the first CTS at A but leaves B alone:
	// A(0), B(100), jam(-150). The CTS at A delivers 1.43e-8 W; the jam
	// at 150 m delivers 2.8e-9 W, SINR 5.1 < 10 -> corrupted.
	jp := geom.Point{X: -150}
	jam := n.ch.AttachRadio(99, func() geom.Point { return jp }, &sniffer{})
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// First RTS ends ~402 us; CTS flies ~412..716 us. Jam that window.
	n.sched.Schedule(420*sim.Microsecond, func() {
		jam.Transmit(0.2818, 4000, 400*sim.Microsecond, "jam")
	})
	n.run(2 * sim.Second)
	if n.macs[1].Stats.DataTimeout == 0 {
		t.Fatalf("receiver never timed out waiting for DATA (stats: %+v)", n.macs[1].Stats)
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatalf("delivered %d, want 1 after retry", len(n.uppers[1].delivered))
	}
	if n.macs[0].Stats.CTSTimeout == 0 {
		t.Fatal("sender never saw a CTS timeout")
	}
}

// TestPCMACDataPowerAdaptsToNoise: the CTS's required DATA power rises
// with interference at the receiver (Step 3's CP*N_B term).
func TestPCMACDataPowerAdaptsToNoise(t *testing.T) {
	// Quiet case first.
	quiet := newNet(t, PCMAC, 0, 100)
	quiet.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	quiet.run(100 * sim.Millisecond)
	var quietData float64
	for i, k := range quiet.sniff.kinds {
		if k == packet.KindData {
			quietData = quiet.sniff.powers[i]
		}
	}
	if quietData == 0 {
		t.Fatal("no DATA in quiet run")
	}

	// Noisy case: a low-power interferer 150 m from B raises B's noise
	// floor during the whole exchange. At 10 mW it stays below A's
	// carrier-sense threshold (250 m away), so A still transmits, and
	// far below the RTS signal at B, so the handshake survives.
	noisy := newNet(t, PCMAC, 0, 100)
	ip := geom.Point{X: 250}
	interferer := noisy.ch.AttachRadio(98, func() geom.Point { return ip }, &sniffer{})
	interferer.Transmit(0.010, 80000, 40*sim.Millisecond, "noise")
	noisy.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	noisy.run(200 * sim.Millisecond)
	var noisyData float64
	for i, k := range noisy.sniff.kinds {
		if k == packet.KindData && noisy.sniff.srcs[i] == 0 {
			noisyData = noisy.sniff.powers[i]
			break
		}
	}
	if noisyData == 0 {
		t.Fatalf("no DATA in noisy run: %v", noisy.sniff.kinds)
	}
	if noisyData <= quietData {
		t.Fatalf("DATA power did not adapt to receiver noise: quiet=%v noisy=%v", quietData, noisyData)
	}
}

// TestPowerBumpOnCTSTimeout: paper Step 2 — after a CTS timeout the
// next RTS goes out one power class higher.
func TestPowerBumpOnCTSTimeout(t *testing.T) {
	n := newNet(t, Scheme2, 0, 60)
	// Teach A a (stale-ish) gain so the first RTS is low power, then
	// point the packet at a node that will never answer... instead,
	// easier: let the exchange succeed once, then jam every CTS so
	// the retries climb the ladder. Simplest deterministic check:
	// prime the history, enqueue to an absent node with a forged gain.
	n.macs[0].history.Observe(7, 0.2818, 0.2818*3.906e-7) // pretend node 7 sits at 60 m
	n.macs[0].Enqueue(dataPacket(0, 7, 1), 7)
	n.run(2 * sim.Second)
	var rtsPowers []float64
	for i, k := range n.sniff.kinds {
		if k == packet.KindRTS {
			rtsPowers = append(rtsPowers, n.sniff.powers[i])
		}
	}
	if len(rtsPowers) != ShortRetryLimit+1 {
		t.Fatalf("RTS count = %d, want %d", len(rtsPowers), ShortRetryLimit+1)
	}
	for i := 1; i < len(rtsPowers); i++ {
		if rtsPowers[i] < rtsPowers[i-1] {
			t.Fatalf("RTS power fell on retry %d: %v", i, rtsPowers)
		}
	}
	if rtsPowers[0] >= rtsPowers[len(rtsPowers)-1] {
		t.Fatalf("RTS power never climbed: %v", rtsPowers)
	}
	// Starting from the 2 mW class, seven one-class bumps end at
	// 75.8 mW (the ninth of ten levels).
	if rtsPowers[0] != 0.002 || rtsPowers[len(rtsPowers)-1] != 0.0758 {
		t.Fatalf("ladder = %v, want 2 mW rising to 75.8 mW", rtsPowers)
	}
}

// TestOverheardBroadcastTeachesGain: power-controlled schemes learn
// link gains from broadcast (RREQ) frames, which always carry the
// maximal power in their header.
func TestOverheardBroadcastTeachesGain(t *testing.T) {
	n := newNet(t, Scheme2, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, packet.Broadcast, 1), packet.Broadcast)
	n.run(50 * sim.Millisecond)
	g, ok := n.macs[1].history.Gain(0)
	if !ok {
		t.Fatal("no gain learned from the broadcast")
	}
	want := n.ch.Model().ReceivedPower(0.2818, 100) / 0.2818
	if !closeEnough(g, want) {
		t.Fatalf("gain = %v, want %v", g, want)
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12 || d/b < 1e-9
}

// TestBlockedStateAcceptsRTS: a PCMAC node deferring for someone else's
// reception must still answer an RTS addressed to it (its CTS passes
// its own tolerance check here because the blocker is far away).
func TestBlockedStateAcceptsRTS(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	// Node 0 is tolerance-blocked for a long reception.
	n.macs[0].registry.Note(9, 1e-13, 1e-6, sim.Time(80*sim.Millisecond))
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// Node 1 sends to node 0 meanwhile; node 0's CTS would violate the
	// same budget... place the entry so only max power violates: with
	// gain 1e-6 and tol 1e-13, every level violates — node 0 cannot
	// even reply. So use a budget that blocks max (RTS at cold-table
	// max power) but admits the low-power CTS node 0 computes from
	// node 1's RTS.
	n.macs[0].registry.Note(9, 1e-10, 3.5e-9, sim.Time(80*sim.Millisecond))
	n.macs[0].registry.Drop(9)
	n.macs[0].registry.Note(9, 1e-10, 3.5e-9, sim.Time(80*sim.Millisecond))
	n.macs[1].Enqueue(dataPacket(1, 0, 2), 0)
	n.run(200 * sim.Millisecond)
	if len(n.uppers[0].delivered) != 1 {
		t.Fatalf("blocked node did not receive: %+v", n.macs[0].Stats)
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatalf("blocked node's own packet never delivered after unblock: %+v", n.macs[0].Stats)
	}
}
