package mac

import (
	"fmt"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// UpperLayer receives MAC events; the routing layer implements it.
type UpperLayer interface {
	// MACDeliver hands up a cleanly received network packet (unicast to
	// this node, or broadcast) together with the one-hop sender.
	MACDeliver(np *packet.NetPacket, from packet.NodeID)
	// MACTxDone reports that a queued packet finished at the MAC level:
	// the ACK arrived (four-way), the DATA left the air (three-way), or
	// a broadcast was sent.
	MACTxDone(np *packet.NetPacket, nextHop packet.NodeID)
	// MACTxFailed reports that the retry limit was exhausted — AODV
	// treats it as a broken link.
	MACTxFailed(np *packet.NetPacket, nextHop packet.NodeID)
}

// Announcer broadcasts PCMAC noise-tolerance announcements on the
// power-control channel. The ctrl package implements it; a nil Announcer
// disables announcements (the DisableCtrlChannel ablation).
type Announcer interface {
	// Announce broadcasts "this node tolerates tolW more watts of noise
	// until the reception ending at until".
	Announce(tolW float64, until sim.Time)
}

// state is the DCF engine state.
type state int

const (
	stIdle       state = iota // nothing to send, no exchange in progress
	stAccess                  // contending to transmit the head-of-line job
	stBlocked                 // PCMAC: deferring for an announced reception
	stWaitCTS                 // RTS sent, awaiting CTS
	stSendData                // CTS received, DATA queued/on the air
	stWaitAck                 // DATA sent, awaiting ACK
	stRespond                 // receiver role: CTS or ACK queued/on the air
	stRxWaitData              // receiver role: CTS sent, awaiting DATA
)

func (s state) String() string {
	names := [...]string{"idle", "access", "blocked", "waitCTS", "sendData", "waitACK", "respond", "rxWaitData"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// txJob is one queued network packet with its one-hop destination.
type txJob struct {
	np       *packet.NetPacket
	dst      packet.NodeID
	powerW   float64 // RTS power for this attempt (bumped on CTS timeout)
	retained bool    // this is a PCMAC retained-copy retransmission
}

// tableEntry is a sent-table or received-table record: the (session,
// sequence) identity of the last data packet exchanged with a neighbour,
// plus — on the sender side — the retained copy (paper Step 4).
type tableEntry struct {
	session uint32
	seq     uint32
	copy    *packet.NetPacket // sender side only
}

// MAC is one terminal's medium access controller. It is driven entirely
// by the simulation scheduler; none of its methods are safe for
// concurrent use.
type MAC struct {
	scheme Scheme
	id     packet.NodeID
	sched  *sim.Scheduler
	radio  *phys.Radio
	upper  UpperLayer
	ann    Announcer
	rng    *rand.Rand

	history  *power.History
	registry *power.Registry
	tr       trace.Sink // nil: tracing off

	// Interface queue and current job. Routing/control packets use the
	// high-priority queue and are served before data, as ns-2's
	// CMUPriQueue does for AODV — under load a route repair must not
	// sit behind fifty data packets.
	hiQueue []*txJob
	queue   []*txJob
	cur     *txJob

	// Exchange state.
	st         state
	xid        uint64 // generation counter guarding scheduled continuations
	retryShort int
	retryLong  int
	cw         int
	dataPowerW float64 // DATA power for the current exchange

	// Receiver role.
	rxPeer packet.NodeID // RTS sender we replied CTS to

	// Channel state. nav is the 802.11 network allocation vector from
	// overheard duration fields; eifsUntil is the post-error defer,
	// kept separate because a subsequent clean reception cancels it
	// (802.11 EIFS rule) while a NAV reservation must not be cancelled.
	nav       sim.Time
	eifsUntil sim.Time
	chanBusy  bool
	idleStart sim.Time

	// Backoff.
	slotsLeft      int
	countdownStart sim.Time

	// Timers.
	deferTimer   *sim.Timer
	backoffTimer *sim.Timer
	waitTimer    *sim.Timer // CTS/ACK timeout (sender)
	rxTimer      *sim.Timer // DATA timeout (receiver)
	navTimer     *sim.Timer
	blockTimer   *sim.Timer // PCMAC tolerance defer

	// PCMAC sent/received tables, keyed by neighbour.
	sent map[packet.NodeID]tableEntry
	recv map[packet.NodeID]tableEntry

	rtsThreshold int // Options.RTSThresholdBytes

	// disableThreeWay keeps the four-way handshake under PCMAC (an
	// ablation knob).
	disableThreeWay bool

	// halted is set by Halt (battery death): the MAC drops its queue,
	// refuses new packets, and ignores every radio callback.
	halted bool

	// Stats counts this terminal's MAC events.
	Stats Stats
}

// Options configures optional MAC behaviour.
type Options struct {
	// Announcer wires the power-control channel; nil disables it.
	Announcer Announcer
	// Registry is the tolerance registry consulted before transmitting;
	// nil disables the PCMAC collision computation.
	Registry *power.Registry
	// History is the power-history table; required for Scheme1, Scheme2
	// and PCMAC.
	History *power.History
	// Rand drives backoff; required.
	Rand *rand.Rand
	// RTSThresholdBytes enables 802.11 basic access: unicast frames
	// whose on-air size is at or below the threshold skip the RTS/CTS
	// exchange and go straight to DATA-ACK. Zero (the ns-2 default the
	// paper inherits) means every unicast uses RTS/CTS. PCMAC's
	// three-way data packets always use RTS/CTS regardless — the
	// implicit acknowledgment rides in the CTS.
	RTSThresholdBytes int
	// DisableThreeWay forces PCMAC to keep the four-way handshake (an
	// ablation of the paper's handshake modification).
	DisableThreeWay bool
	// Tracer receives protocol events; nil disables tracing.
	Tracer trace.Sink
}

// New creates a MAC for the given scheme. Phys radios take their
// handler at creation, so the caller attaches a radio with the returned
// MAC as its handler and hands it back through BindRadio (as
// scenario.newNode does).
func New(scheme Scheme, id packet.NodeID, sched *sim.Scheduler, upper UpperLayer, opts Options) *MAC {
	if opts.Rand == nil {
		panic("mac: Options.Rand is required")
	}
	m := &MAC{
		scheme:          scheme,
		id:              id,
		sched:           sched,
		upper:           upper,
		ann:             opts.Announcer,
		rng:             opts.Rand,
		history:         opts.History,
		registry:        opts.Registry,
		cw:              CWMin,
		rtsThreshold:    opts.RTSThresholdBytes,
		sent:            make(map[packet.NodeID]tableEntry),
		recv:            make(map[packet.NodeID]tableEntry),
		disableThreeWay: opts.DisableThreeWay,
		tr:              opts.Tracer,
	}
	if scheme.usesPowerControl() && m.history == nil {
		panic(fmt.Sprintf("mac: scheme %v requires a power history table", scheme))
	}
	m.deferTimer = sim.NewTimer(sched, m.onDeferDone)
	m.backoffTimer = sim.NewTimer(sched, m.onBackoffDone)
	m.waitTimer = sim.NewTimer(sched, m.onWaitTimeout)
	m.rxTimer = sim.NewTimer(sched, m.onRxTimeout)
	m.navTimer = sim.NewTimer(sched, m.syncChannelState)
	m.blockTimer = sim.NewTimer(sched, m.onUnblocked)
	return m
}

// BindRadio attaches the physical radio. It must be called exactly once
// before the simulation starts.
func (m *MAC) BindRadio(r *phys.Radio) {
	if m.radio != nil {
		panic("mac: BindRadio called twice")
	}
	m.radio = r
}

// ID returns the MAC address.
func (m *MAC) ID() packet.NodeID { return m.id }

// Scheme returns the protocol this MAC runs.
func (m *MAC) Scheme() Scheme { return m.scheme }

// Radio returns the bound radio.
func (m *MAC) Radio() *phys.Radio { return m.radio }

// QueueLen returns the interface queue occupancy (including the job in
// service).
func (m *MAC) QueueLen() int {
	n := len(m.hiQueue) + len(m.queue)
	if m.cur != nil {
		n++
	}
	return n
}

// Enqueue accepts a network packet for transmission to the one-hop
// destination dst (packet.Broadcast for broadcast). It reports false and
// drops the packet when the interface queue is full.
func (m *MAC) Enqueue(np *packet.NetPacket, dst packet.NodeID) bool {
	if dst == m.id {
		panic(fmt.Sprintf("mac: node %v enqueued a packet to itself", m.id))
	}
	if m.halted {
		m.Stats.DropQueue++
		return false
	}
	if m.QueueLen() >= QueueCap {
		m.Stats.DropQueue++
		return false
	}
	j := &txJob{np: np, dst: dst}
	if np.Proto != packet.ProtoUDP {
		m.hiQueue = append(m.hiQueue, j)
	} else {
		m.queue = append(m.queue, j)
	}
	if m.st == stIdle {
		m.next()
	}
	return true
}

// next promotes the head of the queue to the job in service and starts
// medium access. Control traffic (the high-priority queue) goes first.
func (m *MAC) next() {
	if m.cur == nil {
		switch {
		case len(m.hiQueue) > 0:
			m.cur = m.hiQueue[0]
			m.hiQueue = m.hiQueue[1:]
		case len(m.queue) > 0:
			m.cur = m.queue[0]
			m.queue = m.queue[1:]
		default:
			m.st = stIdle
			return
		}
		m.cur.powerW = m.initialPower(m.cur)
	}
	m.st = stAccess
	if !m.mediumBusy() {
		m.resumeAccess()
	}
}

// mediumBusy combines physical carrier sense, the NAV, and any pending
// EIFS defer.
func (m *MAC) mediumBusy() bool {
	now := m.sched.Now()
	return m.radio.CarrierBusy() || now < m.nav || now < m.eifsUntil
}

// virtualUntil returns the later of the NAV and EIFS deadlines.
func (m *MAC) virtualUntil() sim.Time {
	if m.nav > m.eifsUntil {
		return m.nav
	}
	return m.eifsUntil
}

// setNAV extends the network allocation vector to until.
func (m *MAC) setNAV(until sim.Time) {
	if until <= m.nav || until <= m.sched.Now() {
		return
	}
	m.nav = until
	m.navTimer.StartAt(m.virtualUntil())
	m.syncChannelState()
}

// setEIFS arms the post-error defer to until.
func (m *MAC) setEIFS(until sim.Time) {
	if until <= m.eifsUntil || until <= m.sched.Now() {
		return
	}
	m.eifsUntil = until
	m.navTimer.StartAt(m.virtualUntil())
	m.syncChannelState()
}

// clearEIFS cancels the post-error defer (a clean reception proves the
// medium is decodable again).
func (m *MAC) clearEIFS() {
	if m.eifsUntil <= m.sched.Now() {
		return
	}
	m.eifsUntil = 0
	if m.nav > m.sched.Now() {
		m.navTimer.StartAt(m.nav)
	} else {
		m.navTimer.Stop()
	}
	m.syncChannelState()
}

// syncChannelState recomputes the combined busy state and drives the
// access machinery on transitions. It is invoked by radio carrier
// callbacks and NAV expiry.
func (m *MAC) syncChannelState() {
	b := m.mediumBusy()
	if b == m.chanBusy {
		return
	}
	m.chanBusy = b
	if b {
		m.freezeBackoff()
		return
	}
	m.idleStart = m.sched.Now()
	if m.st == stAccess {
		m.resumeAccess()
	}
}

// freezeBackoff suspends the defer/countdown when the medium goes busy,
// remembering how many whole slots were consumed.
func (m *MAC) freezeBackoff() {
	m.deferTimer.Stop()
	if m.backoffTimer.Pending() {
		consumed := int(m.sched.Now().Sub(m.countdownStart) / SlotTime)
		if consumed > m.slotsLeft {
			consumed = m.slotsLeft
		}
		m.slotsLeft -= consumed
		m.backoffTimer.Stop()
	}
}

// deferDur returns the interframe defer before backoff. Plain DIFS is
// correct here: the post-error EIFS is tracked as part of the virtual
// carrier (eifsUntil), so by the time the medium reads idle the EIFS
// has already elapsed or been cancelled by a clean reception.
func (m *MAC) deferDur() sim.Duration { return DIFS }

// resumeAccess (re)starts the DIFS defer and backoff countdown. Caller
// guarantees st == stAccess and the medium is idle.
func (m *MAC) resumeAccess() {
	need := m.deferDur()
	idleFor := m.sched.Now().Sub(m.idleStart)
	if idleFor >= need {
		m.onDeferDone()
		return
	}
	m.deferTimer.Start(need - idleFor)
}

// onDeferDone fires when the medium has stayed idle for a full DIFS.
func (m *MAC) onDeferDone() {
	if m.st != stAccess {
		return
	}
	if m.slotsLeft == 0 {
		m.beginTx()
		return
	}
	m.countdownStart = m.sched.Now()
	m.backoffTimer.Start(sim.Duration(m.slotsLeft) * SlotTime)
}

// onBackoffDone fires when the backoff countdown reaches zero with the
// medium still idle.
func (m *MAC) onBackoffDone() {
	if m.st != stAccess {
		return
	}
	m.slotsLeft = 0
	m.beginTx()
}

// onUnblocked fires when a PCMAC tolerance defer expires.
func (m *MAC) onUnblocked() {
	if m.st != stBlocked {
		return
	}
	m.st = stAccess
	if !m.mediumBusy() {
		m.resumeAccess()
	}
}

// bumpCW doubles the contention window, saturating at CWMax.
func (m *MAC) bumpCW() {
	m.cw = (m.cw+1)*2 - 1
	if m.cw > CWMax {
		m.cw = CWMax
	}
}

// retryAccess re-enters contention after a failed attempt.
func (m *MAC) retryAccess() {
	m.bumpCW()
	m.slotsLeft = m.rng.Intn(m.cw + 1)
	m.st = stAccess
	if !m.mediumBusy() {
		m.resumeAccess()
	}
}

// finishExchange completes the job in service (successfully or not),
// applies the 802.11 post-backoff, and moves to the next packet.
func (m *MAC) finishExchange() {
	m.xid++
	m.waitTimer.Stop()
	m.cur = nil
	m.retryShort, m.retryLong = 0, 0
	m.cw = CWMin
	m.slotsLeft = m.rng.Intn(m.cw + 1)
	m.st = stIdle
	m.next()
}

// exitReceiverRole ends the CTS/DATA/ACK receiver exchange and resumes
// any suspended sender-side access.
func (m *MAC) exitReceiverRole() {
	m.xid++
	m.rxTimer.Stop()
	m.rxPeer = 0
	m.st = stIdle
	m.next()
}

// Halt permanently stops the MAC — the battery-death path. Every timer
// is cancelled, the interface queue (including the job in service) is
// dropped, and from here on Enqueue refuses packets and all radio
// callbacks are ignored. Stats survive for end-of-run collection.
func (m *MAC) Halt() {
	if m.halted {
		return
	}
	m.halted = true
	m.xid++ // invalidate scheduled exchange continuations
	m.deferTimer.Stop()
	m.backoffTimer.Stop()
	m.waitTimer.Stop()
	m.rxTimer.Stop()
	m.navTimer.Stop()
	m.blockTimer.Stop()
	drops := len(m.hiQueue) + len(m.queue)
	if m.cur != nil {
		drops++
	}
	m.Stats.DropQueue += uint64(drops)
	m.cur = nil
	m.hiQueue, m.queue = nil, nil
	m.rxPeer = 0
	m.st = stIdle
}

// after schedules fn after d, guarded so it only runs if the exchange it
// belongs to is still live.
func (m *MAC) after(d sim.Duration, fn func()) {
	xid := m.xid
	m.sched.Schedule(d, func() {
		if m.xid == xid {
			fn()
		}
	})
}
