package aodv

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// fakeNet wires routers together over perfect links with configurable
// adjacency and injectable link failures, so routing logic is tested
// in isolation from the MAC.
type fakeNet struct {
	sched   *sim.Scheduler
	routers map[packet.NodeID]*Router
	links   map[packet.NodeID][]packet.NodeID
	failing map[[2]packet.NodeID]bool

	delivered map[packet.NodeID][]*packet.NetPacket
	resets    map[packet.NodeID][]packet.NodeID
}

type fakeLink struct {
	net *fakeNet
	id  packet.NodeID
}

func (l *fakeLink) Enqueue(np *packet.NetPacket, next packet.NodeID) bool {
	// One-hop latency keeps event ordering realistic.
	l.net.sched.Schedule(sim.Millisecond, func() {
		if next == packet.Broadcast {
			for _, nb := range l.net.links[l.id] {
				l.net.routers[nb].MACDeliver(np, l.id)
			}
			return
		}
		if l.net.failing[[2]packet.NodeID{l.id, next}] {
			l.net.routers[l.id].MACTxFailed(np, next)
			return
		}
		l.net.routers[next].MACDeliver(np, l.id)
	})
	return true
}

func (l *fakeLink) ResetPeerState(peer packet.NodeID) {
	l.net.resets[l.id] = append(l.net.resets[l.id], peer)
}

// newFakeNet builds routers 0..n-1 with the given undirected edges.
func newFakeNet(n int, edges [][2]packet.NodeID) *fakeNet {
	fn := &fakeNet{
		sched:     sim.NewScheduler(),
		routers:   make(map[packet.NodeID]*Router),
		links:     make(map[packet.NodeID][]packet.NodeID),
		failing:   make(map[[2]packet.NodeID]bool),
		delivered: make(map[packet.NodeID][]*packet.NetPacket),
		resets:    make(map[packet.NodeID][]packet.NodeID),
	}
	for _, e := range edges {
		fn.links[e[0]] = append(fn.links[e[0]], e[1])
		fn.links[e[1]] = append(fn.links[e[1]], e[0])
	}
	uid := uint64(0)
	for i := 0; i < n; i++ {
		id := packet.NodeID(i)
		r := NewRouter(id, fn.sched, &fakeLink{net: fn, id: id})
		r.NextUID = func() uint64 { uid++; return uid }
		r.Deliver = func(np *packet.NetPacket, from packet.NodeID) {
			fn.delivered[id] = append(fn.delivered[id], np)
		}
		fn.routers[id] = r
	}
	return fn
}

func data(src, dst packet.NodeID, seq uint32) *packet.NetPacket {
	return &packet.NetPacket{
		UID: uint64(1000 + seq), Proto: packet.ProtoUDP,
		Src: src, Dst: dst, TTL: 32, Bytes: 512, FlowID: 1, Seq: seq,
	}
}

// routeTo returns a copy of r's live route to dst.
func routeTo(r *Router, dst packet.NodeID) (Route, bool) {
	rt, ok := r.table.get(dst)
	if !ok {
		return Route{}, false
	}
	return *rt, true
}

func TestDiscoveryAndDelivery(t *testing.T) {
	// Chain 0-1-2.
	fn := newFakeNet(3, [][2]packet.NodeID{{0, 1}, {1, 2}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	if got := len(fn.delivered[2]); got != 1 {
		t.Fatalf("delivered = %d, want 1 (stats: %+v)", got, fn.routers[0].Stats)
	}
	rt, ok := routeTo(fn.routers[0], 2)
	if !ok {
		t.Fatal("no route installed at origin")
	}
	if rt.NextHop != 1 || rt.HopCount != 2 {
		t.Fatalf("route = %+v, want via 1, 2 hops", rt)
	}
	// Reverse route was learned too.
	if _, ok := routeTo(fn.routers[2], 0); !ok {
		t.Fatal("destination has no reverse route to origin")
	}
	if fn.routers[0].Stats.DiscoveryStarted != 1 {
		t.Fatalf("DiscoveryStarted = %d", fn.routers[0].Stats.DiscoveryStarted)
	}
}

func TestSecondPacketUsesCachedRoute(t *testing.T) {
	fn := newFakeNet(3, [][2]packet.NodeID{{0, 1}, {1, 2}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	started := fn.routers[0].Stats.DiscoveryStarted
	fn.routers[0].Send(data(0, 2, 2))
	fn.sched.Run(sim.Time(4 * sim.Second))
	if len(fn.delivered[2]) != 2 {
		t.Fatalf("delivered = %d, want 2", len(fn.delivered[2]))
	}
	if fn.routers[0].Stats.DiscoveryStarted != started {
		t.Fatal("second packet triggered a new discovery despite a cached route")
	}
}

func TestDuplicateRREQIgnored(t *testing.T) {
	// Diamond 0-1, 0-2, 1-3, 2-3: node 3 hears the flood twice.
	fn := newFakeNet(4, [][2]packet.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	fn.routers[0].Send(data(0, 3, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	if len(fn.delivered[3]) != 1 {
		t.Fatalf("delivered = %d, want exactly 1", len(fn.delivered[3]))
	}
	var dups uint64
	for _, r := range fn.routers {
		dups += r.Stats.DuplicateRREQIgnored
	}
	if dups == 0 {
		t.Fatal("no duplicate RREQ was suppressed in a diamond topology")
	}
}

func TestLocalLoopback(t *testing.T) {
	fn := newFakeNet(1, nil)
	fn.routers[0].Send(data(0, 0, 1))
	if len(fn.delivered[0]) != 1 {
		t.Fatal("self-addressed packet not delivered locally")
	}
}

func TestLinkFailureTriggersRERR(t *testing.T) {
	fn := newFakeNet(3, [][2]packet.NodeID{{0, 1}, {1, 2}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	// Break 1->2 and push another packet.
	fn.failing[[2]packet.NodeID{1, 2}] = true
	fn.routers[0].Send(data(0, 2, 2))
	fn.sched.Run(sim.Time(4 * sim.Second))
	if len(fn.delivered[2]) != 1 {
		t.Fatalf("delivered = %d, want 1 (second packet lost to link failure)", len(fn.delivered[2]))
	}
	if fn.routers[1].Stats.RERRSent == 0 {
		t.Fatal("relay did not send a RERR on link failure")
	}
	if fn.routers[1].Stats.LinkFailDrop != 1 {
		t.Fatalf("LinkFailDrop = %d, want 1", fn.routers[1].Stats.LinkFailDrop)
	}
	if _, ok := routeTo(fn.routers[0], 2); ok {
		t.Fatal("origin's route survived the RERR")
	}
	// The PCMAC route-change hook fired at the RERR receiver.
	found := false
	for _, p := range fn.resets[0] {
		if p == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("RERR reception did not reset MAC peer state toward upstream")
	}
}

func TestRREPSendResetsPeerState(t *testing.T) {
	fn := newFakeNet(2, [][2]packet.NodeID{{0, 1}})
	fn.routers[0].Send(data(0, 1, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	// Node 1 answered the RREQ with a RREP to 0 and must have reset its
	// MAC state for that downstream peer.
	found := false
	for _, p := range fn.resets[1] {
		if p == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("RREP send did not reset MAC peer state (paper Section III)")
	}
}

func TestDiscoveryFailureDropsBuffered(t *testing.T) {
	fn := newFakeNet(2, nil) // no links: 0 is isolated
	for i := uint32(1); i <= 5; i++ {
		fn.routers[0].Send(data(0, 1, i))
	}
	fn.sched.Run(sim.Time(20 * sim.Second))
	st := fn.routers[0].Stats
	if st.DiscoveryFailed != 1 {
		t.Fatalf("DiscoveryFailed = %d, want 1", st.DiscoveryFailed)
	}
	if st.NoRouteDrop != 5 {
		t.Fatalf("NoRouteDrop = %d, want 5", st.NoRouteDrop)
	}
	// Discovery retried with the configured cap.
	want := uint64(1 + MaxDiscoveryRetries)
	if st.DiscoveryStarted != want {
		t.Fatalf("DiscoveryStarted = %d, want %d", st.DiscoveryStarted, want)
	}
}

func TestBufferCap(t *testing.T) {
	fn := newFakeNet(2, nil)
	cap := BufferCap
	for i := 0; i < cap+7; i++ {
		fn.routers[0].Send(data(0, 1, uint32(i+1)))
	}
	if got := fn.routers[0].Stats.BufferDrop; got != 7 {
		t.Fatalf("BufferDrop = %d, want 7", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	fn := newFakeNet(3, [][2]packet.NodeID{{0, 1}, {1, 2}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	np := data(0, 2, 2)
	np.TTL = 0
	// Inject a TTL-expired packet at the relay.
	fn.routers[1].MACDeliver(np, 0)
	fn.sched.Run(sim.Time(3 * sim.Second))
	if fn.routers[1].Stats.TTLDrop == 0 {
		t.Fatal("TTL-expired packet was not dropped")
	}
	if len(fn.delivered[2]) != 1 {
		t.Fatalf("TTL-expired packet reached the destination")
	}
}

func TestMessageBytes(t *testing.T) {
	if (&Message{Type: MsgRREQ}).Bytes() != 24 {
		t.Error("RREQ size")
	}
	if (&Message{Type: MsgRREP}).Bytes() != 20 {
		t.Error("RREP size")
	}
	if got := (&Message{Type: MsgRERR, Unreachable: make([]Unreachable, 3)}).Bytes(); got != 4+3*8 {
		t.Errorf("RERR size = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown message Bytes did not panic")
		}
	}()
	(&Message{Type: 99}).Bytes()
}

func TestMessageStrings(t *testing.T) {
	msgs := []*Message{
		{Type: MsgRREQ, RreqID: 1, Origin: 2, Target: 3},
		{Type: MsgRREP, Origin: 2, Target: 3},
		{Type: MsgRERR, Unreachable: []Unreachable{{Dst: 5}}},
	}
	for _, m := range msgs {
		if m.String() == "" {
			t.Errorf("empty String for %v", m.Type)
		}
	}
	if !strings.Contains(MsgRREQ.String(), "RREQ") {
		t.Error("MsgRREQ String")
	}
	if MsgType(42).String() == "" {
		t.Error("unknown MsgType String")
	}
	if (&Message{Type: 42}).String() == "" {
		t.Error("unknown Message String")
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	// Chain 0-1-2-3: after 0 discovers 3, node 1 holds a fresh route to
	// 3. When 0's route expires... simpler: a *new* discovery from 0
	// for 3 (forced by invalidating locally) can be answered by 1
	// directly, without the flood reaching 3 again.
	fn := newFakeNet(4, [][2]packet.NodeID{{0, 1}, {1, 2}, {2, 3}})
	fn.routers[0].Send(data(0, 3, 1))
	fn.sched.Run(sim.Time(3 * sim.Second))
	if len(fn.delivered[3]) != 1 {
		t.Fatalf("setup delivery failed (routing stats: %+v)", fn.routers[0].Stats)
	}
	// Node 1 learned a route to 3 while forwarding the RREP.
	if _, ok := routeTo(fn.routers[1], 3); !ok {
		t.Fatal("relay has no cached route to the destination")
	}
	rreqRecvAt3 := fn.routers[3].Stats.RREQRecv
	// Tear down only the origin's route and rediscover.
	fn.routers[0].MACTxFailed(data(0, 3, 99), 1)
	fn.routers[0].Send(data(0, 3, 2))
	fn.sched.Run(sim.Time(6 * sim.Second))
	if len(fn.delivered[3]) != 2 {
		t.Fatalf("redelivery failed: %d", len(fn.delivered[3]))
	}
	// The relay's cached route answered: the destination saw no (or at
	// most the dedup'd copy of) new RREQ... the flood may still reach 3
	// via 2 before the RREP returns, so assert the *intermediate RREP*
	// happened instead: node 1 sent more RREPs than the destination
	// answered.
	if fn.routers[1].Stats.RREPSent == 0 {
		t.Fatalf("relay never replied from cache (rreq@3 before=%d after=%d)",
			rreqRecvAt3, fn.routers[3].Stats.RREQRecv)
	}
}

func TestRERRPropagatesUpstream(t *testing.T) {
	// Chain 0-1-2-3 with traffic 0->3. Break 2->3; the RERR must
	// invalidate the route at 2, then 1, then 0.
	fn := newFakeNet(4, [][2]packet.NodeID{{0, 1}, {1, 2}, {2, 3}})
	fn.routers[0].Send(data(0, 3, 1))
	fn.sched.Run(sim.Time(3 * sim.Second))
	fn.failing[[2]packet.NodeID{2, 3}] = true
	fn.routers[0].Send(data(0, 3, 2))
	fn.sched.Run(sim.Time(6 * sim.Second))
	for _, id := range []packet.NodeID{0, 1, 2} {
		if _, ok := routeTo(fn.routers[id], 3); ok {
			t.Errorf("node %v still has a live route to 3 after the break", id)
		}
	}
	if fn.routers[1].Stats.RERRRecv == 0 || fn.routers[0].Stats.RERRRecv == 0 {
		t.Fatalf("RERR did not propagate: n1=%d n0=%d",
			fn.routers[1].Stats.RERRRecv, fn.routers[0].Stats.RERRRecv)
	}
}

func TestStaleRERRDoesNotKillFreshRoute(t *testing.T) {
	fn := newFakeNet(3, [][2]packet.NodeID{{0, 1}, {1, 2}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	rt, ok := routeTo(fn.routers[0], 2)
	if !ok {
		t.Fatal("no route after discovery")
	}
	// Deliver a RERR from the correct next hop but with an old sequence
	// number: the fresher route must survive.
	stale := &Message{Type: MsgRERR, Unreachable: []Unreachable{{Dst: 2, Seq: rt.Seq - 1}}}
	fn.routers[0].MACDeliver(&packet.NetPacket{
		Proto: packet.ProtoAODV, Src: 1, Dst: 0, TTL: 32, Bytes: stale.Bytes(), Payload: stale,
	}, 1)
	if _, ok := routeTo(fn.routers[0], 2); !ok {
		t.Fatal("stale RERR killed a fresher route")
	}
}

func TestRERRFromWrongNextHopIgnored(t *testing.T) {
	// A RERR about destination 2 arriving from a node that is NOT our
	// next hop toward 2 must not tear the route down.
	fn := newFakeNet(4, [][2]packet.NodeID{{0, 1}, {1, 2}, {0, 3}})
	fn.routers[0].Send(data(0, 2, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	rt, ok := routeTo(fn.routers[0], 2)
	if !ok || rt.NextHop != 1 {
		t.Fatalf("route = %+v, %v", rt, ok)
	}
	msg := &Message{Type: MsgRERR, Unreachable: []Unreachable{{Dst: 2, Seq: rt.Seq + 10}}}
	fn.routers[0].MACDeliver(&packet.NetPacket{
		Proto: packet.ProtoAODV, Src: 3, Dst: 0, TTL: 32, Bytes: msg.Bytes(), Payload: msg,
	}, 3)
	if _, ok := routeTo(fn.routers[0], 2); !ok {
		t.Fatal("RERR from an unrelated neighbour killed the route")
	}
}

func TestBroadcastTxFailureIgnored(t *testing.T) {
	fn := newFakeNet(2, [][2]packet.NodeID{{0, 1}})
	fn.routers[0].Send(data(0, 1, 1))
	fn.sched.Run(sim.Time(2 * sim.Second))
	before := fn.routers[0].Stats.RERRSent
	fn.routers[0].MACTxFailed(data(0, 1, 2), packet.Broadcast)
	if fn.routers[0].Stats.RERRSent != before {
		t.Fatal("broadcast tx failure triggered a RERR")
	}
	if _, ok := routeTo(fn.routers[0], 1); !ok {
		t.Fatal("broadcast tx failure invalidated routes")
	}
}

// sinkLink accepts and counts every enqueue, so a lone router can be
// fed RREQs directly.
type sinkLink struct{ sent int }

func (l *sinkLink) Enqueue(*packet.NetPacket, packet.NodeID) bool { l.sent++; return true }
func (l *sinkLink) ResetPeerState(packet.NodeID)                  {}

// rreqFrom is flood (origin, id) as heard from origin itself.
func rreqFrom(origin packet.NodeID, id uint32) *packet.NetPacket {
	msg := &Message{Type: MsgRREQ, RreqID: id, Origin: origin, OriginSeq: 1, Target: 999}
	return &packet.NetPacket{Proto: packet.ProtoAODV, Src: origin, Dst: packet.Broadcast, TTL: 8, Bytes: msg.Bytes(), Payload: msg}
}

// TestRREQReprocessedAfterSeenLifetime: a repeated flood is suppressed
// while its duplicate-cache entry lives and processed again (re-flooded)
// from the instant SeenLifetime has passed.
func TestRREQReprocessedAfterSeenLifetime(t *testing.T) {
	s := sim.NewScheduler()
	link := &sinkLink{}
	r := NewRouter(1, s, link)
	life := SeenLifetime
	for _, at := range []sim.Duration{0, sim.Millisecond, life - 1, life} {
		s.Schedule(at, func() { r.MACDeliver(rreqFrom(5, 1), 5) })
	}
	s.Run(sim.Time(2 * life))
	if r.Stats.RREQRecv != 4 || r.Stats.DuplicateRREQIgnored != 2 {
		t.Fatalf("recv %d, ignored %d; want 4 received, the 2 inside the lifetime ignored", r.Stats.RREQRecv, r.Stats.DuplicateRREQIgnored)
	}
	if r.Stats.RREQSent != 2 || link.sent != 2 {
		t.Fatalf("re-flooded %d times (%d enqueued), want 2: first copy and the one after the lifetime", r.Stats.RREQSent, link.sent)
	}
}

// TestSeenCacheBounded feeds 10k distinct floods, one every 10 ms, so
// 500 duplicate-cache entries are live at any instant. The cache must
// purge expired entries rather than grow with the stream, and must
// never drop a live one.
func TestSeenCacheBounded(t *testing.T) {
	const (
		floods  = 10000
		spacing = 10 * sim.Millisecond
	)
	s := sim.NewScheduler()
	r := NewRouter(1, s, &sinkLink{})
	live := int(SeenLifetime / spacing)
	flood := func(i int) (packet.NodeID, uint32) { return packet.NodeID(2 + i%100), uint32(1 + i/100) }
	maxCap := 0
	for i := 0; i < floods; i++ {
		s.Schedule(sim.Duration(i)*spacing, func() {
			r.MACDeliver(rreqFrom(flood(i)), 2)
			maxCap = max(maxCap, r.seen.Cap())
		})
	}
	s.Run(sim.Time((floods - 1) * spacing))
	if r.Stats.DuplicateRREQIgnored != 0 {
		t.Fatalf("%d distinct floods ignored as duplicates", r.Stats.DuplicateRREQIgnored)
	}
	if maxCap > 4*live {
		t.Fatalf("duplicate cache reached %d slots for %d live entries", maxCap, live)
	}
	// The newest floods are still live: repeating each is ignored.
	for i := floods - live; i < floods; i++ {
		r.MACDeliver(rreqFrom(flood(i)), 2)
	}
	if got := r.Stats.DuplicateRREQIgnored; got != uint64(live) {
		t.Fatalf("%d of the %d live floods suppressed on repeat", got, live)
	}
}
