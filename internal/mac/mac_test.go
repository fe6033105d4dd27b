package mac

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
)

// testUpper records upper-layer callbacks.
type testUpper struct {
	delivered []*packet.NetPacket
	from      []packet.NodeID
	done      []*packet.NetPacket
	failed    []*packet.NetPacket
}

func (u *testUpper) MACDeliver(np *packet.NetPacket, from packet.NodeID) {
	u.delivered = append(u.delivered, np)
	u.from = append(u.from, from)
}
func (u *testUpper) MACTxDone(np *packet.NetPacket, next packet.NodeID) { u.done = append(u.done, np) }
func (u *testUpper) MACTxFailed(np *packet.NetPacket, next packet.NodeID) {
	u.failed = append(u.failed, np)
}

// sniffer is a phys.Handler that records every decodable frame on the
// channel with its timing and power.
type sniffer struct {
	kinds  []packet.FrameKind
	srcs   []packet.NodeID
	times  []sim.Time
	powers []float64
}

func (s *sniffer) RadioRxBegin(tx *phys.Transmission, p float64) {}
func (s *sniffer) RadioRx(tx *phys.Transmission, p float64, err bool) {
	if err {
		return
	}
	f, ok := tx.Payload.(*packet.Frame)
	if !ok {
		return
	}
	s.kinds = append(s.kinds, f.Kind)
	s.srcs = append(s.srcs, f.Src)
	s.times = append(s.times, tx.Start)
	s.powers = append(s.powers, f.TxPowerW)
}
func (s *sniffer) RadioCarrierBusy()              {}
func (s *sniffer) RadioCarrierIdle()              {}
func (s *sniffer) RadioTxDone(*phys.Transmission) {}

// net is a little MAC-level test network.
type net struct {
	sched  *sim.Scheduler
	ch     *phys.Channel
	macs   []*MAC
	uppers []*testUpper
	sniff  *sniffer
}

// newNet builds MACs for the given scheme at the given x positions, plus
// a sniffer at x=0.
func newNet(t *testing.T, scheme Scheme, xs ...float64) *net {
	t.Helper()
	n := &net{sched: sim.NewScheduler(), sniff: &sniffer{}}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	for i, x := range xs {
		up := &testUpper{}
		opts := Options{
			Rand: rand.New(rand.NewSource(int64(i + 1))),
		}
		if scheme.usesPowerControl() {
			opts.History = power.NewHistory(n.sched.Now, 3*sim.Second)
		}
		if scheme == PCMAC {
			opts.Registry = power.NewRegistry(n.sched.Now, 0.7)
		}
		m := New(scheme, packet.NodeID(i), n.sched, up, opts)
		p := geom.Point{X: x}
		m.BindRadio(n.ch.AttachRadio(i, func() geom.Point { return p }, m))
		n.macs = append(n.macs, m)
		n.uppers = append(n.uppers, up)
	}
	sp := geom.Point{X: 0, Y: 10}
	n.ch.AttachRadio(len(xs), func() geom.Point { return sp }, n.sniff)
	return n
}

func dataPacket(src, dst packet.NodeID, seq uint32) *packet.NetPacket {
	return &packet.NetPacket{
		UID: uint64(seq), Proto: packet.ProtoUDP, Src: src, Dst: dst,
		TTL: 32, Bytes: 512, FlowID: 1, Seq: seq,
	}
}

func routingPacket(src, dst packet.NodeID) *packet.NetPacket {
	return &packet.NetPacket{UID: 999, Proto: packet.ProtoAODV, Src: src, Dst: dst, TTL: 32, Bytes: 20}
}

func (n *net) run(d sim.Duration) { n.sched.Run(sim.Time(d)) }

func TestFourWayHandshakeSequence(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	want := []packet.FrameKind{packet.KindRTS, packet.KindCTS, packet.KindData, packet.KindAck}
	if len(n.sniff.kinds) != len(want) {
		t.Fatalf("frames on air = %v, want %v", n.sniff.kinds, want)
	}
	for i := range want {
		if n.sniff.kinds[i] != want[i] {
			t.Fatalf("frame %d = %v, want %v (all: %v)", i, n.sniff.kinds[i], want[i], n.sniff.kinds)
		}
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatalf("receiver delivered %d packets", len(n.uppers[1].delivered))
	}
	if n.uppers[1].from[0] != 0 {
		t.Fatalf("delivered from %v, want n0", n.uppers[1].from[0])
	}
	if len(n.uppers[0].done) != 1 {
		t.Fatalf("sender done = %d", len(n.uppers[0].done))
	}
	if n.macs[0].Stats.TxRTS != 1 || n.macs[0].Stats.TxData != 1 || n.macs[1].Stats.TxCTS != 1 || n.macs[1].Stats.TxAck != 1 {
		t.Fatalf("frame counters wrong: %+v %+v", n.macs[0].Stats, n.macs[1].Stats)
	}
}

func TestSIFSSpacing(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	if len(n.sniff.times) != 4 {
		t.Fatalf("want 4 frames, got %d", len(n.sniff.times))
	}
	// CTS starts one SIFS (plus propagation, < 1 us) after RTS ends.
	rtsEnd := n.sniff.times[0].Add(AirTime(packet.RTSBytes, BasicRateBps))
	gap := n.sniff.times[1].Sub(rtsEnd)
	if gap < SIFS || gap > SIFS+2*sim.Microsecond {
		t.Fatalf("RTS->CTS gap = %v, want ~SIFS (%v)", gap, SIFS)
	}
}

func TestBroadcastNoHandshake(t *testing.T) {
	n := newNet(t, Basic, 0, 100, 200)
	n.macs[0].Enqueue(dataPacket(0, packet.Broadcast, 1), packet.Broadcast)
	n.run(50 * sim.Millisecond)
	for _, k := range n.sniff.kinds {
		if k != packet.KindData {
			t.Fatalf("non-DATA frame %v on air for a broadcast", k)
		}
	}
	if len(n.uppers[1].delivered) != 1 || len(n.uppers[2].delivered) != 1 {
		t.Fatalf("broadcast delivered to %d/%d nodes, want 1/1",
			len(n.uppers[1].delivered), len(n.uppers[2].delivered))
	}
	if n.macs[0].Stats.TxBroadcast != 1 {
		t.Fatalf("TxBroadcast = %d", n.macs[0].Stats.TxBroadcast)
	}
	if len(n.uppers[0].done) != 1 {
		t.Fatalf("broadcast sender done = %d", len(n.uppers[0].done))
	}
}

func TestRetryLimitThenFail(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	np := dataPacket(0, 77, 1) // node 77 does not exist
	n.macs[0].Enqueue(np, 77)
	n.run(2 * sim.Second)
	if got := n.macs[0].Stats.TxRTS; got != uint64(ShortRetryLimit)+1 {
		t.Fatalf("RTS attempts = %d, want %d", got, ShortRetryLimit+1)
	}
	if len(n.uppers[0].failed) != 1 || n.uppers[0].failed[0] != np {
		t.Fatalf("MACTxFailed not reported: %v", n.uppers[0].failed)
	}
	if n.macs[0].Stats.DropRetry != 1 {
		t.Fatalf("DropRetry = %d", n.macs[0].Stats.DropRetry)
	}
	// The MAC must recover: a later packet to a real node succeeds.
	n.macs[0].Enqueue(dataPacket(0, 1, 2), 1)
	n.run(3 * sim.Second)
	if len(n.uppers[1].delivered) != 1 {
		t.Fatal("MAC did not recover after a retry-limit drop")
	}
}

func TestNAVDefersThirdParty(t *testing.T) {
	// A(0) sends to B(100); C(50) overhears both and has its own packet
	// for D(150). C must not start until the A-B exchange completes.
	n := newNet(t, Basic, 0, 100, 50, 150)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// C's packet arrives while A's RTS is on the air.
	n.sched.Schedule(300*sim.Microsecond, func() {
		n.macs[2].Enqueue(dataPacket(2, 3, 2), 3)
	})
	n.run(200 * sim.Millisecond)
	// Find when the A-B ACK ended and when C's RTS started.
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
		t.Fatalf("C transmitted at %v, before the A-B exchange finished at %v (NAV violated)", cRTS, ackEnd)
	}
	if len(n.uppers[3].delivered) != 1 {
		t.Fatal("C's packet was not delivered after the NAV")
	}
}

func TestThreeWayNoAckForData(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	for _, k := range n.sniff.kinds {
		if k == packet.KindAck {
			t.Fatal("ACK on air for a PCMAC data packet (three-way handshake)")
		}
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.uppers[1].delivered))
	}
	if len(n.uppers[0].done) != 1 {
		t.Fatalf("sender done = %d", len(n.uppers[0].done))
	}
	// The sender retained a copy for implicit retransmission.
	ent, ok := n.macs[0].sent[1]
	if !ok || ent.copy == nil || ent.seq != 1 {
		t.Fatalf("sent-table entry missing/incomplete: %+v ok=%v", ent, ok)
	}
	// The receiver recorded the reception.
	rent, ok := n.macs[1].recv[0]
	if !ok || rent.seq != 1 {
		t.Fatalf("received-table entry missing: %+v ok=%v", rent, ok)
	}
}

func TestFourWayForRoutingUnderPCMAC(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	n.macs[0].Enqueue(routingPacket(0, 1), 1)
	n.run(100 * sim.Millisecond)
	sawAck := false
	for _, k := range n.sniff.kinds {
		if k == packet.KindAck {
			sawAck = true
		}
	}
	if !sawAck {
		t.Fatal("no ACK for a unicast routing packet under PCMAC (paper keeps four-way for routing)")
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatal("routing packet not delivered")
	}
}

func TestCTSEchoesLastReceived(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	n.macs[0].Enqueue(dataPacket(0, 1, 2), 1)
	n.run(200 * sim.Millisecond)
	// Sniff the second CTS: it must carry (session=1, seq=1).
	var ctsCount int
	for i, k := range n.sniff.kinds {
		if k == packet.KindCTS {
			ctsCount++
			_ = i
		}
	}
	if ctsCount != 2 {
		t.Fatalf("CTS count = %d, want 2", ctsCount)
	}
	// White-box: after packet 2, the receiver's table holds seq 2.
	if ent := n.macs[1].recv[0]; ent.seq != 2 {
		t.Fatalf("receiver table seq = %d, want 2", ent.seq)
	}
	if n.macs[0].Stats.ImplicitRetx != 0 {
		t.Fatalf("spurious implicit retransmissions: %d", n.macs[0].Stats.ImplicitRetx)
	}
}

func TestImplicitRetransmitAfterDataLoss(t *testing.T) {
	// A(0) -> B(60). A jammer radio at 360 m from B corrupts B's DATA
	// reception of packet 1. Under the three-way handshake A learns of
	// the loss only from the next CTS and retransmits the retained copy.
	n := newNet(t, PCMAC, 0, 60)
	jp := geom.Point{X: 380}
	jam := n.ch.AttachRadio(99, func() geom.Point { return jp }, &sniffer{})

	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	// The DATA of the first exchange flies roughly between 0.9 ms and
	// 3.5 ms; blanket the window.
	n.sched.Schedule(900*sim.Microsecond, func() {
		jam.Transmit(0.2818, 8000, 4*sim.Millisecond, "jam")
	})
	n.run(50 * sim.Millisecond)
	if len(n.uppers[1].delivered) != 0 {
		t.Fatalf("packet 1 should have been jammed; delivered=%d", len(n.uppers[1].delivered))
	}
	// Packet 2 triggers the implicit-ack check; A must retransmit
	// packet 1 first, then send packet 2.
	n.macs[0].Enqueue(dataPacket(0, 1, 2), 1)
	n.run(1 * sim.Second)
	if n.macs[0].Stats.ImplicitRetx == 0 {
		t.Fatal("no implicit retransmission after jammed DATA")
	}
	got := n.uppers[1].delivered
	if len(got) != 2 {
		t.Fatalf("delivered %d packets, want 2 (retransmitted #1 then #2)", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("delivery order = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
}

func TestResetPeerState(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	if _, ok := n.macs[0].sent[1]; !ok {
		t.Fatal("no sent entry to reset")
	}
	n.macs[0].ResetPeerState(1)
	n.macs[1].ResetPeerState(0)
	if _, ok := n.macs[0].sent[1]; ok {
		t.Fatal("sent entry survived reset")
	}
	if _, ok := n.macs[1].recv[0]; ok {
		t.Fatal("recv entry survived reset")
	}
}

func TestToleranceDeferBlocksTransmission(t *testing.T) {
	n := newNet(t, PCMAC, 0, 100)
	// A nearby receiver announced a tolerance that max-power (the
	// first-attempt RTS power with an empty history) violates.
	until := sim.Time(5 * sim.Millisecond)
	n.macs[0].registry.Note(9, 1e-12, 1e-9, until)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	if n.macs[0].Stats.ToleranceDefer == 0 {
		t.Fatal("transmission was not deferred")
	}
	if len(n.sniff.times) == 0 || n.sniff.times[0] < until {
		t.Fatalf("first frame at %v, want after the blocking reception ends at %v", n.sniff.times[0], until)
	}
	if len(n.uppers[1].delivered) != 1 {
		t.Fatal("packet not delivered after the defer")
	}
}

func TestScheme2ReducesPowerAfterLearning(t *testing.T) {
	n := newNet(t, Scheme2, 0, 60)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	n.macs[0].Enqueue(dataPacket(0, 1, 2), 1)
	n.run(300 * sim.Millisecond)
	// First RTS at max power (empty history); a later RTS at the
	// learned minimum.
	var rtsPowers []float64
	for i, k := range n.sniff.kinds {
		if k == packet.KindRTS {
			rtsPowers = append(rtsPowers, n.sniff.powers[i])
		}
	}
	if len(rtsPowers) < 2 {
		t.Fatalf("want >= 2 RTS, got %d", len(rtsPowers))
	}
	if rtsPowers[0] != 0.2818 {
		t.Fatalf("first RTS power = %v, want max (cold table)", rtsPowers[0])
	}
	if rtsPowers[len(rtsPowers)-1] >= 0.2818 {
		t.Fatalf("later RTS power = %v, want reduced after learning", rtsPowers[len(rtsPowers)-1])
	}
}

func TestScheme1KeepsControlFramesAtMaxPower(t *testing.T) {
	n := newNet(t, Scheme1, 0, 60)
	for s := uint32(1); s <= 3; s++ {
		n.macs[0].Enqueue(dataPacket(0, 1, s), 1)
	}
	n.run(500 * sim.Millisecond)
	var dataReduced bool
	for i, k := range n.sniff.kinds {
		switch k {
		case packet.KindRTS, packet.KindCTS:
			if n.sniff.powers[i] != 0.2818 {
				t.Fatalf("scheme1 %v at %v W, want max", k, n.sniff.powers[i])
			}
		case packet.KindData:
			if n.sniff.powers[i] < 0.2818 {
				dataReduced = true
			}
		}
	}
	if !dataReduced {
		t.Fatal("scheme1 never reduced DATA power after learning the gain")
	}
}

func TestBasicAlwaysMaxPower(t *testing.T) {
	n := newNet(t, Basic, 0, 60)
	for s := uint32(1); s <= 3; s++ {
		n.macs[0].Enqueue(dataPacket(0, 1, s), 1)
	}
	n.run(500 * sim.Millisecond)
	for i := range n.sniff.kinds {
		if n.sniff.powers[i] != 0.2818 {
			t.Fatalf("basic frame %v at %v W, want max", n.sniff.kinds[i], n.sniff.powers[i])
		}
	}
}

func TestQueueCapacity(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	accepted := 0
	for s := uint32(0); s < uint32(QueueCap)+5; s++ {
		if n.macs[0].Enqueue(dataPacket(0, 1, s+1), 1) {
			accepted++
		}
	}
	if accepted != QueueCap {
		t.Fatalf("accepted %d, want %d", accepted, QueueCap)
	}
	if n.macs[0].Stats.DropQueue != 5 {
		t.Fatalf("DropQueue = %d, want 5", n.macs[0].Stats.DropQueue)
	}
}

func TestEnqueueToSelfPanics(t *testing.T) {
	n := newNet(t, Basic, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue to self did not panic")
		}
	}()
	n.macs[0].Enqueue(dataPacket(0, 0, 1), 0)
}

func TestDuplicateDataSuppressed(t *testing.T) {
	// White-box: deliver the same DATA frame twice to a receiver (as a
	// lost-ACK retransmission would) and check the duplicate is
	// suppressed but still acknowledged.
	n := newNet(t, Basic, 0, 100)
	m := n.macs[1]
	f := &packet.Frame{
		Kind: packet.KindData, Src: 0, Dst: 1,
		Session: 1, Seq: 7, Payload: dataPacket(0, 1, 7),
	}
	m.rxPeer = 0
	m.st = stRxWaitData
	m.onDataFrame(f, 1e-9)
	n.run(5 * sim.Millisecond)
	m.rxPeer = 0
	m.st = stRxWaitData
	m.onDataFrame(f, 1e-9)
	n.run(10 * sim.Millisecond)
	if len(n.uppers[1].delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (duplicate suppressed)", len(n.uppers[1].delivered))
	}
	if m.Stats.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", m.Stats.Duplicates)
	}
	if m.Stats.TxAck != 2 {
		t.Fatalf("TxAck = %d, want 2 (duplicates still acknowledged)", m.Stats.TxAck)
	}
}

func TestEIFSClearedByCleanReception(t *testing.T) {
	n := newNet(t, Basic, 0)
	m := n.macs[0]
	m.setEIFS(sim.Time(400 * sim.Microsecond))
	if !m.mediumBusy() {
		t.Fatal("EIFS not busy")
	}
	m.clearEIFS()
	if m.mediumBusy() {
		t.Fatal("EIFS survived clearEIFS")
	}
	// NAV must survive an EIFS clear.
	m.setNAV(sim.Time(300 * sim.Microsecond))
	m.setEIFS(sim.Time(200 * sim.Microsecond))
	m.clearEIFS()
	if !m.mediumBusy() {
		t.Fatal("NAV lost when EIFS cleared")
	}
}

func TestContentionWindowDoubling(t *testing.T) {
	n := newNet(t, Basic, 0, 100)
	m := n.macs[0]
	if m.cw != CWMin {
		t.Fatalf("initial cw = %d", m.cw)
	}
	m.bumpCW()
	if m.cw != 63 {
		t.Fatalf("cw after one bump = %d, want 63", m.cw)
	}
	for i := 0; i < 10; i++ {
		m.bumpCW()
	}
	if m.cw != CWMax {
		t.Fatalf("cw not capped: %d", m.cw)
	}
}

func TestTwoPairInterferenceRecovery(t *testing.T) {
	// The paper's Figure 4 layout: pair A(0)->B(240) and pair
	// C(650)->D(890). C is beyond A's and B's 550 m sensing zone from
	// A (650 m) but only 410 m from B, so C's max-power frames corrupt
	// B's receptions while C hears nothing of the exchange. 802.11
	// retries must still deliver everything eventually.
	n := newNet(t, Basic, 0, 240, 650, 890)
	for s := uint32(1); s <= 5; s++ {
		n.macs[0].Enqueue(dataPacket(0, 1, s), 1)
		n.macs[2].Enqueue(dataPacket(2, 3, s+10), 3)
	}
	n.run(5 * sim.Second)
	if len(n.uppers[1].delivered) != 5 || len(n.uppers[3].delivered) != 5 {
		t.Fatalf("delivered %d/%d, want 5/5", len(n.uppers[1].delivered), len(n.uppers[3].delivered))
	}
}

func TestSchemeParsing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scheme
	}{{"basic", Basic}, {"802.11", Basic}, {"scheme1", Scheme1}, {"scheme2", Scheme2}, {"pcmac", PCMAC}} {
		got, err := ParseScheme(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScheme(%q) = %v,%v", c.in, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("bogus scheme parsed")
	}
	if Basic.String() != "basic802.11" || PCMAC.String() != "pcmac" {
		t.Error("scheme names wrong")
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme String empty")
	}
	if len(Schemes()) != 4 {
		t.Error("Schemes() should list all four protocols")
	}
}

func TestAirTimeMath(t *testing.T) {
	// RTS: 192 us PLCP + 160 bits at 1 Mbps = 352 us.
	if got := AirTime(packet.RTSBytes, BasicRateBps); got != 352*sim.Microsecond {
		t.Errorf("RTS airtime = %v, want 352us", got)
	}
	// 512+28 byte DATA at 2 Mbps: 192 + 2160 = 2352 us.
	if got := AirTime(540, DataRateBps); got != 2352*sim.Microsecond {
		t.Errorf("DATA airtime = %v, want 2352us", got)
	}
	// EIFS = SIFS + DIFS + ACK at basic rate = 10+50+304 = 364 us.
	if got := EIFS(); got != 364*sim.Microsecond {
		t.Errorf("EIFS = %v, want 364us", got)
	}
}

func TestMissingRandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Rand did not panic")
		}
	}()
	New(Basic, 0, sim.NewScheduler(), &testUpper{}, Options{})
}

func TestPowerSchemeRequiresHistory(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheme2 without history did not panic")
		}
	}()
	New(Scheme2, 0, sim.NewScheduler(), &testUpper{}, Options{
		Rand: rand.New(rand.NewSource(1)),
	})
}

func TestDisableThreeWayAblation(t *testing.T) {
	n := &net{sched: sim.NewScheduler(), sniff: &sniffer{}}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	for i, x := range []float64{0, 100} {
		up := &testUpper{}
		m := New(PCMAC, packet.NodeID(i), n.sched, up, Options{
			Rand:            rand.New(rand.NewSource(int64(i + 1))),
			History:         power.NewHistory(n.sched.Now, 3*sim.Second),
			Registry:        power.NewRegistry(n.sched.Now, 0.7),
			DisableThreeWay: true,
		})
		p := geom.Point{X: x}
		m.BindRadio(n.ch.AttachRadio(i, func() geom.Point { return p }, m))
		n.macs = append(n.macs, m)
		n.uppers = append(n.uppers, up)
	}
	sp := geom.Point{X: 0, Y: 10}
	n.ch.AttachRadio(2, func() geom.Point { return sp }, n.sniff)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	sawAck := false
	for _, k := range n.sniff.kinds {
		if k == packet.KindAck {
			sawAck = true
		}
	}
	if !sawAck {
		t.Fatal("DisableThreeWay still used the three-way handshake")
	}
}

func TestRoutingPacketsJumpTheQueue(t *testing.T) {
	// Fill the queue with data, then enqueue a routing packet: it must
	// be served before the queued data (ns-2 CMUPriQueue behaviour).
	n := newNet(t, Basic, 0, 100)
	for s := uint32(1); s <= 5; s++ {
		n.macs[0].Enqueue(dataPacket(0, 1, s), 1)
	}
	n.macs[0].Enqueue(routingPacket(0, 1), 1)
	n.run(2 * sim.Second)
	// The delivery order at the receiver tells the story.
	got := n.uppers[1].delivered
	if len(got) != 6 {
		t.Fatalf("delivered %d packets, want 6", len(got))
	}
	// The routing packet was enqueued sixth but must arrive earlier
	// than sixth (it can't preempt the job already in service, so
	// second place is typical).
	pos := -1
	for i, np := range got {
		if np.Proto == packet.ProtoAODV {
			pos = i
		}
	}
	if pos == -1 || pos >= 5 {
		t.Fatalf("routing packet delivered at position %d, want before the data backlog", pos)
	}
}

func TestRTSThresholdBasicAccess(t *testing.T) {
	// With the threshold above the frame size, a small routing packet
	// goes DATA-ACK with no RTS/CTS.
	n := &net{sched: sim.NewScheduler(), sniff: &sniffer{}}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	for i, x := range []float64{0, 100} {
		up := &testUpper{}
		m := New(Basic, packet.NodeID(i), n.sched, up, Options{
			Rand:              rand.New(rand.NewSource(int64(i + 1))),
			RTSThresholdBytes: 256,
		})
		p := geom.Point{X: x}
		m.BindRadio(n.ch.AttachRadio(i, func() geom.Point { return p }, m))
		n.macs = append(n.macs, m)
		n.uppers = append(n.uppers, up)
	}
	sp := geom.Point{X: 0, Y: 10}
	n.ch.AttachRadio(2, func() geom.Point { return sp }, n.sniff)

	n.macs[0].Enqueue(routingPacket(0, 1), 1)
	n.run(100 * sim.Millisecond)
	want := []packet.FrameKind{packet.KindData, packet.KindAck}
	if len(n.sniff.kinds) != 2 || n.sniff.kinds[0] != want[0] || n.sniff.kinds[1] != want[1] {
		t.Fatalf("frames = %v, want %v (basic access)", n.sniff.kinds, want)
	}
	if len(n.uppers[1].delivered) != 1 || len(n.uppers[0].done) != 1 {
		t.Fatal("basic access exchange did not complete")
	}

	// A 512 B data packet exceeds the threshold: full RTS/CTS.
	n.sniff.kinds = nil
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(300 * sim.Millisecond)
	if len(n.sniff.kinds) == 0 || n.sniff.kinds[0] != packet.KindRTS {
		t.Fatalf("large frame skipped RTS: %v", n.sniff.kinds)
	}
}

func TestRTSThresholdRetryOnAckLoss(t *testing.T) {
	// Basic access to a nonexistent node retries DATA up to the long
	// retry limit, then fails.
	n := &net{sched: sim.NewScheduler(), sniff: &sniffer{}}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	up := &testUpper{}
	m := New(Basic, 0, n.sched, up, Options{Rand: rand.New(rand.NewSource(1)), RTSThresholdBytes: 256})
	p := geom.Point{}
	m.BindRadio(n.ch.AttachRadio(0, func() geom.Point { return p }, m))
	m.Enqueue(routingPacket(0, 9), 9)
	n.sched.Run(sim.Time(5 * sim.Second))
	if got := m.Stats.TxData; got != uint64(LongRetryLimit)+1 {
		t.Fatalf("DATA attempts = %d, want %d", got, LongRetryLimit+1)
	}
	if len(up.failed) != 1 {
		t.Fatal("basic-access retry exhaustion not reported")
	}
}

func TestThreeWayIgnoresRTSThreshold(t *testing.T) {
	// PCMAC data must keep RTS/CTS even below the threshold — the CTS
	// carries the implicit acknowledgment.
	n := &net{sched: sim.NewScheduler(), sniff: &sniffer{}}
	n.ch = phys.NewChannel(n.sched, phys.NewTwoRayGround())
	for i, x := range []float64{0, 100} {
		up := &testUpper{}
		m := New(PCMAC, packet.NodeID(i), n.sched, up, Options{
			Rand:              rand.New(rand.NewSource(int64(i + 1))),
			History:           power.NewHistory(n.sched.Now, 3*sim.Second),
			Registry:          power.NewRegistry(n.sched.Now, 0.7),
			RTSThresholdBytes: 4096,
		})
		p := geom.Point{X: x}
		m.BindRadio(n.ch.AttachRadio(i, func() geom.Point { return p }, m))
		n.macs = append(n.macs, m)
		n.uppers = append(n.uppers, up)
	}
	sp := geom.Point{X: 0, Y: 10}
	n.ch.AttachRadio(2, func() geom.Point { return sp }, n.sniff)
	n.macs[0].Enqueue(dataPacket(0, 1, 1), 1)
	n.run(100 * sim.Millisecond)
	if len(n.sniff.kinds) == 0 || n.sniff.kinds[0] != packet.KindRTS {
		t.Fatalf("three-way data skipped RTS under a large threshold: %v", n.sniff.kinds)
	}
}
