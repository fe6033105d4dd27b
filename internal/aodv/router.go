package aodv

import (
	"math/rand"

	"repro/internal/idtab"
	"repro/internal/packet"
	"repro/internal/sim"
)

// LinkLayer is what the router needs from the MAC below it. mac.MAC
// satisfies it.
type LinkLayer interface {
	// Enqueue hands a packet to the MAC for one-hop delivery to next
	// (packet.Broadcast floods it). It reports false when the interface
	// queue is full.
	Enqueue(np *packet.NetPacket, next packet.NodeID) bool
	// ResetPeerState clears PCMAC's per-peer sent/received tables; it is
	// invoked on the paper's two route-change events (RREP sent
	// downstream, RERR received from upstream).
	ResetPeerState(peer packet.NodeID)
}

// The ns-2-era AODV constants.
const (
	// ActiveRouteTimeout is the route lifetime, refreshed by use (ns-2
	// AODV uses 10 s).
	ActiveRouteTimeout = 10 * sim.Second
	// DiscoveryTimeout is how long to wait for a RREP before retrying
	// the flood.
	DiscoveryTimeout = 500 * sim.Millisecond
	// MaxDiscoveryRetries bounds RREQ re-floods per discovery.
	MaxDiscoveryRetries = 2
	// BufferCap bounds packets buffered per destination during
	// discovery.
	BufferCap = 32
	// SeenLifetime is the RREQ duplicate-cache lifetime.
	SeenLifetime = 5 * sim.Second
	// MaxTTL bounds flood and forwarding hop counts.
	MaxTTL uint8 = 32
	// BroadcastJitter desynchronizes flood re-broadcasts: every
	// broadcast is delayed uniformly in [0, BroadcastJitter). Without
	// it all neighbours of a RREQ sender contend in the same slot
	// window and the flood self-destructs (ns-2's AODV jitters its
	// broadcasts the same way).
	BroadcastJitter = 10 * sim.Millisecond
)

// Stats counts routing events at one node.
type Stats struct {
	RREQSent, RREQRecv   uint64
	RREPSent, RREPRecv   uint64
	RERRSent, RERRRecv   uint64
	Forwarded            uint64
	DeliveredLocal       uint64
	NoRouteDrop          uint64
	LinkFailDrop         uint64
	TTLDrop              uint64
	BufferDrop           uint64
	QueueFullDrop        uint64
	DiscoveryStarted     uint64
	DiscoveryFailed      uint64
	DuplicateRREQIgnored uint64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.RREQSent += o.RREQSent
	s.RREQRecv += o.RREQRecv
	s.RREPSent += o.RREPSent
	s.RREPRecv += o.RREPRecv
	s.RERRSent += o.RERRSent
	s.RERRRecv += o.RERRRecv
	s.Forwarded += o.Forwarded
	s.DeliveredLocal += o.DeliveredLocal
	s.NoRouteDrop += o.NoRouteDrop
	s.LinkFailDrop += o.LinkFailDrop
	s.TTLDrop += o.TTLDrop
	s.BufferDrop += o.BufferDrop
	s.QueueFullDrop += o.QueueFullDrop
	s.DiscoveryStarted += o.DiscoveryStarted
	s.DiscoveryFailed += o.DiscoveryFailed
	s.DuplicateRREQIgnored += o.DuplicateRREQIgnored
}

type discovery struct {
	buf     []*packet.NetPacket
	retries int
	timer   *sim.Timer
}

// Router is one node's AODV instance. It implements mac.UpperLayer.
//
// Every RREQ of a flood probes the duplicate cache, so it is an
// open-addressed idtab.Table keyed by seenKey, holding each flood's
// suppression deadline. An expired deadline reads as absent, so
// expired entries are left in place until the table would grow, and
// purged then.
type Router struct {
	id    packet.NodeID
	sched *sim.Scheduler
	link  LinkLayer
	// Deliver receives data packets addressed to this node.
	Deliver func(np *packet.NetPacket, from packet.NodeID)
	// NextUID mints unique packet IDs for control envelopes.
	NextUID func() uint64
	// Jitter draws broadcast delays; nil disables jitter.
	Jitter *rand.Rand

	table   *table
	seq     uint32
	rreqID  uint32
	seen    idtab.Table[sim.Time]
	pending map[packet.NodeID]*discovery

	// Stats counts this node's routing events.
	Stats Stats
}

// NewRouter creates an AODV router for node id over the given link
// layer.
func NewRouter(id packet.NodeID, sched *sim.Scheduler, link LinkLayer) *Router {
	r := &Router{
		id:      id,
		sched:   sched,
		link:    link,
		NextUID: func() uint64 { return 0 },
		table:   newTable(sched.Now),
		pending: make(map[packet.NodeID]*discovery),
	}
	r.seen.Stale = func(until sim.Time) bool { return r.sched.Now() >= until }
	return r
}

// seenKey is the duplicate-cache key of a flood: its origin and RREQ
// ID.
func seenKey(origin packet.NodeID, id uint32) uint64 {
	return uint64(origin)<<32 | uint64(id)
}

// BindLink attaches the link layer when it could not be supplied at
// construction (the MAC and router reference each other). It must be
// called before the simulation starts if NewRouter was given a nil
// link.
func (r *Router) BindLink(l LinkLayer) { r.link = l }

// ID returns the router's node address.
func (r *Router) ID() packet.NodeID { return r.id }

// Send originates a data packet from this node: route it if a route
// exists, otherwise buffer it and start a route discovery.
func (r *Router) Send(np *packet.NetPacket) {
	if np.Dst == r.id {
		r.Stats.DeliveredLocal++
		if r.Deliver != nil {
			r.Deliver(np, r.id)
		}
		return
	}
	if rt, ok := r.table.get(np.Dst); ok {
		r.table.refresh(np.Dst, ActiveRouteTimeout)
		if !r.link.Enqueue(np, rt.NextHop) {
			r.Stats.QueueFullDrop++
		}
		return
	}
	r.bufferAndDiscover(np)
}

func (r *Router) bufferAndDiscover(np *packet.NetPacket) {
	d, ok := r.pending[np.Dst]
	if !ok {
		d = &discovery{}
		dst := np.Dst
		d.timer = sim.NewTimer(r.sched, func() { r.onDiscoveryTimeout(dst) })
		r.pending[np.Dst] = d
		r.Stats.DiscoveryStarted++
		r.sendRREQ(np.Dst)
		d.timer.Start(DiscoveryTimeout)
	}
	if len(d.buf) >= BufferCap {
		r.Stats.BufferDrop++
		return
	}
	d.buf = append(d.buf, np)
}

func (r *Router) sendRREQ(dst packet.NodeID) {
	r.seq++
	r.rreqID++
	var targetSeq uint32
	if old, ok := r.table.peek(dst); ok {
		targetSeq = old.Seq
	}
	msg := &Message{
		Type:      MsgRREQ,
		RreqID:    r.rreqID,
		Origin:    r.id,
		OriginSeq: r.seq,
		Target:    dst,
		TargetSeq: targetSeq,
	}
	// Suppress our own flood copy coming back.
	r.seen.Put(seenKey(r.id, r.rreqID), r.sched.Now().Add(SeenLifetime))
	r.Stats.RREQSent++
	r.broadcast(msg)
}

func (r *Router) onDiscoveryTimeout(dst packet.NodeID) {
	d, ok := r.pending[dst]
	if !ok {
		return
	}
	if d.retries >= MaxDiscoveryRetries {
		r.Stats.DiscoveryFailed++
		r.Stats.NoRouteDrop += uint64(len(d.buf))
		delete(r.pending, dst)
		return
	}
	d.retries++
	r.Stats.DiscoveryStarted++
	r.sendRREQ(dst)
	d.timer.Start(DiscoveryTimeout << uint(d.retries)) // binary backoff
}

// envelope wraps an AODV message in a network packet.
func (r *Router) envelope(msg *Message, dst packet.NodeID, ttl uint8) *packet.NetPacket {
	return &packet.NetPacket{
		UID:       r.NextUID(),
		Proto:     packet.ProtoAODV,
		Src:       r.id,
		Dst:       dst,
		TTL:       ttl,
		Bytes:     msg.Bytes(),
		CreatedAt: r.sched.Now(),
		Payload:   msg,
	}
}

func (r *Router) broadcast(msg *Message) {
	r.broadcastTTL(msg, MaxTTL)
}

func (r *Router) broadcastTTL(msg *Message, ttl uint8) {
	np := r.envelope(msg, packet.Broadcast, ttl)
	send := func() {
		if !r.link.Enqueue(np, packet.Broadcast) {
			r.Stats.QueueFullDrop++
		}
	}
	if r.Jitter != nil {
		r.sched.Schedule(sim.Duration(r.Jitter.Int63n(int64(BroadcastJitter))), send)
		return
	}
	send()
}

func (r *Router) unicast(msg *Message, dst, next packet.NodeID) {
	np := r.envelope(msg, dst, MaxTTL)
	if !r.link.Enqueue(np, next) {
		r.Stats.QueueFullDrop++
	}
}

// --- mac.UpperLayer ----------------------------------------------------

// MACDeliver implements mac.UpperLayer.
func (r *Router) MACDeliver(np *packet.NetPacket, from packet.NodeID) {
	if np.Proto == packet.ProtoAODV {
		msg, ok := np.Payload.(*Message)
		if !ok {
			return
		}
		switch msg.Type {
		case MsgRREQ:
			r.handleRREQ(msg, np, from)
		case MsgRREP:
			r.handleRREP(msg, from)
		case MsgRERR:
			r.handleRERR(msg, from)
		}
		return
	}
	// Data plane.
	if np.Dst == r.id {
		r.Stats.DeliveredLocal++
		r.table.refresh(np.Src, ActiveRouteTimeout)
		if r.Deliver != nil {
			r.Deliver(np, from)
		}
		return
	}
	r.forward(np, from)
}

func (r *Router) forward(np *packet.NetPacket, from packet.NodeID) {
	if np.TTL == 0 {
		r.Stats.TTLDrop++
		return
	}
	np.TTL--
	rt, ok := r.table.get(np.Dst)
	if !ok {
		// No live route: drop and warn the upstream direction.
		r.Stats.NoRouteDrop++
		var seq uint32
		if old, okOld := r.table.peek(np.Dst); okOld {
			seq = old.Seq
		}
		r.sendRERR([]Unreachable{{Dst: np.Dst, Seq: seq}})
		return
	}
	r.table.refresh(np.Dst, ActiveRouteTimeout)
	r.table.refresh(np.Src, ActiveRouteTimeout)
	r.Stats.Forwarded++
	if !r.link.Enqueue(np, rt.NextHop) {
		r.Stats.QueueFullDrop++
	}
	_ = from
}

func (r *Router) handleRREQ(msg *Message, np *packet.NetPacket, from packet.NodeID) {
	r.Stats.RREQRecv++
	key := seenKey(msg.Origin, msg.RreqID)
	now := r.sched.Now()
	if until, ok := r.seen.Get(key); ok && now < until {
		r.Stats.DuplicateRREQIgnored++
		return
	}
	r.seen.Put(key, now.Add(SeenLifetime))
	// Learn the reverse route to the origin and the neighbour link.
	r.table.update(msg.Origin, from, int(msg.HopCount)+1, msg.OriginSeq, ActiveRouteTimeout)
	r.learnNeighbour(from)
	if msg.Target == r.id {
		// We are the destination: answer with a RREP (paper: RREP
		// unicasts use the four-way handshake).
		if int32(msg.TargetSeq-r.seq) > 0 {
			r.seq = msg.TargetSeq
		}
		rep := &Message{
			Type:      MsgRREP,
			Origin:    msg.Origin,
			Target:    r.id,
			TargetSeq: r.seq,
			HopCount:  0,
		}
		r.Stats.RREPSent++
		// PCMAC route-change hook: sending a RREP downstream resets the
		// MAC table state for that peer.
		r.link.ResetPeerState(from)
		r.unicast(rep, msg.Origin, from)
		return
	}
	// Intermediate node with a fresh-enough route may answer directly.
	if rt, ok := r.table.get(msg.Target); ok && msg.TargetSeq != 0 && int32(rt.Seq-msg.TargetSeq) >= 0 {
		rep := &Message{
			Type:      MsgRREP,
			Origin:    msg.Origin,
			Target:    msg.Target,
			TargetSeq: rt.Seq,
			HopCount:  uint8(rt.HopCount),
		}
		r.Stats.RREPSent++
		r.link.ResetPeerState(from)
		r.unicast(rep, msg.Origin, from)
		return
	}
	// Re-flood.
	if np.TTL == 0 {
		r.Stats.TTLDrop++
		return
	}
	fwd := *msg
	fwd.HopCount++
	r.Stats.RREQSent++
	r.broadcastTTL(&fwd, np.TTL-1)
}

func (r *Router) handleRREP(msg *Message, from packet.NodeID) {
	r.Stats.RREPRecv++
	r.learnNeighbour(from)
	r.table.update(msg.Target, from, int(msg.HopCount)+1, msg.TargetSeq, ActiveRouteTimeout)
	if msg.Origin == r.id {
		// Our discovery completed: flush the buffered packets.
		if d, ok := r.pending[msg.Target]; ok {
			d.timer.Stop()
			delete(r.pending, msg.Target)
			for _, np := range d.buf {
				r.Send(np)
			}
		}
		return
	}
	// Forward toward the origin along the reverse route.
	rt, ok := r.table.get(msg.Origin)
	if !ok {
		return // reverse route evaporated; origin will retry
	}
	fwd := *msg
	fwd.HopCount++
	r.Stats.RREPSent++
	r.link.ResetPeerState(rt.NextHop)
	r.unicast(&fwd, msg.Origin, rt.NextHop)
}

func (r *Router) handleRERR(msg *Message, from packet.NodeID) {
	r.Stats.RERRRecv++
	// PCMAC route-change hook: a RERR from an upstream terminal resets
	// the MAC table state for that peer.
	r.link.ResetPeerState(from)
	var propagate []Unreachable
	for _, u := range msg.Unreachable {
		if rt, ok := r.table.peek(u.Dst); ok && rt.Valid && rt.NextHop == from {
			if r.table.invalidate(u.Dst, u.Seq) {
				propagate = append(propagate, u)
			}
		}
	}
	if len(propagate) > 0 {
		r.sendRERR(propagate)
	}
}

func (r *Router) sendRERR(unreach []Unreachable) {
	msg := &Message{Type: MsgRERR, Unreachable: unreach}
	r.Stats.RERRSent++
	r.broadcast(msg)
}

// MACTxDone implements mac.UpperLayer.
func (r *Router) MACTxDone(np *packet.NetPacket, next packet.NodeID) {}

// MACTxFailed implements mac.UpperLayer: the MAC exhausted its retries,
// which AODV treats as a broken link to next.
func (r *Router) MACTxFailed(np *packet.NetPacket, next packet.NodeID) {
	if next == packet.Broadcast {
		return
	}
	unreach := r.table.invalidateVia(next)
	if np.Proto == packet.ProtoUDP {
		r.Stats.LinkFailDrop++
	}
	if len(unreach) > 0 {
		r.sendRERR(unreach)
	}
}

// learnNeighbour installs/refreshes the one-hop route to a node we just
// heard from directly.
func (r *Router) learnNeighbour(n packet.NodeID) {
	var seq uint32
	if old, ok := r.table.peek(n); ok {
		seq = old.Seq
	}
	r.table.update(n, n, 1, seq, ActiveRouteTimeout)
}
