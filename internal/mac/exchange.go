package mac

import (
	"fmt"
	"math"

	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/trace"
)

// threeWay reports whether np uses the RTS-CTS-DATA handshake: PCMAC
// data packets only — unicast routing packets keep the ACK (paper
// Step 7).
func (m *MAC) threeWay(np *packet.NetPacket) bool {
	return m.scheme.threeWayData() && !m.disableThreeWay && np.Proto == packet.ProtoUDP
}

// initialPower selects the first-attempt RTS power for a job: the
// learned minimum for power-controlled RTS, otherwise the maximum.
// Broadcasts always use the maximum (all schemes, per the paper).
func (m *MAC) initialPower(j *txJob) float64 {
	if j.dst == packet.Broadcast {
		return power.MaxW
	}
	return m.powerFor(packet.KindRTS, j.dst)
}

// powerFor returns the transmit power for a frame kind to dst under the
// active scheme: the history-derived minimum (with margin, quantized up
// to a level) when the scheme controls that kind, the maximum otherwise
// or when the table has no fresh entry.
func (m *MAC) powerFor(kind packet.FrameKind, dst packet.NodeID) float64 {
	if !m.scheme.controlled(kind) {
		return power.MaxW
	}
	need, ok := m.history.NeededPower(dst, phys.RxThreshW)
	if !ok {
		return power.MaxW
	}
	return power.Quantize(need * PowerMargin)
}

// localNoise is the noise-plus-interference currently observed at this
// terminal's antenna (the paper's N_A / N_B).
func (m *MAC) localNoise() float64 {
	return phys.NoiseFloorW + m.radio.Interference()
}

// checkTolerance runs PCMAC's collision computation: would transmitting
// at powerW violate any announced receiver's noise budget? Other schemes
// (or the ablation with no registry) always pass. No peer is excluded:
// by the time we contend for the next frame, any announcement our own
// DATA triggered at the peer has expired with that reception.
func (m *MAC) checkTolerance(powerW float64) (bool, sim.Duration) {
	if m.scheme != PCMAC || m.registry == nil {
		return true, 0
	}
	return m.registry.Check(powerW)
}

// beginTx transmits the job in service: a broadcast data frame, or the
// RTS opening a unicast exchange. Called with the medium idle and
// backoff complete.
func (m *MAC) beginTx() {
	j := m.cur
	if j == nil {
		m.st = stIdle
		return
	}
	if ok, wait := m.checkTolerance(j.powerW); !ok {
		// Paper Step 2: back off until the blocking reception completes.
		m.Stats.ToleranceDefer++
		if m.tr != nil {
			m.tr.Trace(trace.Record{
				At: m.sched.Now(), Op: trace.OpDefer, Node: m.id,
				Detail: fmt.Sprintf("dst=%v wait=%v", j.dst, wait),
			})
		}
		m.st = stBlocked
		m.blockTimer.Start(wait + sim.Duration(m.rng.Intn(m.cw+1))*SlotTime)
		return
	}
	if j.dst == packet.Broadcast {
		m.sendBroadcast(j)
		return
	}
	if m.basicAccess(j) {
		m.dataPowerW = m.powerFor(packet.KindData, j.dst)
		m.st = stSendData
		m.sendData(j)
		return
	}
	m.sendRTS(j)
}

// basicAccess reports whether the job skips RTS/CTS (802.11 basic
// access below the RTS threshold). Three-way data always uses RTS/CTS:
// its acknowledgment is carried by the CTS.
func (m *MAC) basicAccess(j *txJob) bool {
	if m.rtsThreshold <= 0 || m.threeWay(j.np) {
		return false
	}
	size := packet.DataHeaderBytes + j.np.Bytes
	if m.extended() {
		size += packet.PCMACHeaderExtra
	}
	return size <= m.rtsThreshold
}

// extended reports whether frames carry the power-control header fields.
func (m *MAC) extended() bool { return m.scheme.usesPowerControl() }

// airRTS/airCTS/airACK/airData return frame airtimes under the active
// scheme (the header extension slightly lengthens them).
func (m *MAC) airCtl(base int) sim.Duration {
	n := base
	if m.extended() {
		n += packet.PCMACHeaderExtra
	}
	return AirTime(n, BasicRateBps)
}

func (m *MAC) airData(np *packet.NetPacket) sim.Duration {
	n := packet.DataHeaderBytes + np.Bytes
	if m.extended() {
		n += packet.PCMACHeaderExtra
	}
	return AirTime(n, DataRateBps)
}

// transmit puts a frame on the air at powerW.
func (m *MAC) transmit(f *packet.Frame, powerW float64) {
	if m.tr != nil {
		m.tr.Trace(trace.Record{
			At: m.sched.Now(), Op: trace.OpSend, Node: m.id, Kind: f.Kind,
			Detail: fmt.Sprintf("dst=%v pw=%.4gmW", f.Dst, powerW*1e3),
		})
	}
	air := FrameAirTime(f)
	m.radio.Transmit(powerW, f.Bytes()*8, air, f)
}

// sendBroadcast transmits a broadcast data frame (no handshake, maximum
// power — all four protocols broadcast at the normal power level).
func (m *MAC) sendBroadcast(j *txJob) {
	f := &packet.Frame{
		Kind:     packet.KindData,
		Src:      m.id,
		Dst:      packet.Broadcast,
		TxPowerW: power.MaxW,
		Extended: m.extended(),
		Payload:  j.np,
	}
	m.Stats.TxBroadcast++
	m.transmit(f, power.MaxW)
}

// sendRTS opens a unicast exchange.
func (m *MAC) sendRTS(j *txJob) {
	sifs := SIFS
	var nav sim.Duration
	if m.threeWay(j.np) {
		nav = 2*sifs + m.airCtl(packet.CTSBytes) + m.airData(j.np)
	} else {
		nav = 3*sifs + m.airCtl(packet.CTSBytes) + m.airData(j.np) + m.airCtl(packet.AckBytes)
	}
	f := &packet.Frame{
		Kind:     packet.KindRTS,
		Src:      m.id,
		Dst:      j.dst,
		Duration: nav,
		TxPowerW: j.powerW,
		Extended: m.extended(),
	}
	if m.scheme == PCMAC {
		f.SenderNoiseW = m.localNoise()
	}
	m.st = stWaitCTS
	m.Stats.TxRTS++
	m.transmit(f, j.powerW)
}

// onCTS handles a CTS addressed to this node.
func (m *MAC) onCTS(f *packet.Frame, rxPowerW float64) {
	if m.st != stWaitCTS || m.cur == nil || f.Src != m.cur.dst {
		return
	}
	m.waitTimer.Stop()
	j := m.cur
	if m.threeWay(j.np) && !j.retained {
		// Implicit acknowledgment check (paper Step 4): the CTS echoes
		// the last data packet the receiver got from us; a mismatch
		// against the sent-table means the previous DATA was lost and
		// the retained copy must go first.
		if prev, ok := m.sent[j.dst]; ok && prev.copy != nil {
			match := f.HasLast && f.LastSession == prev.session && f.LastSeq == prev.seq
			if !match {
				m.Stats.ImplicitRetx++
				m.queue = append([]*txJob{j}, m.queue...)
				j = &txJob{np: prev.copy, dst: j.dst, powerW: j.powerW, retained: true}
				m.cur = j
			}
		}
	}
	// DATA power: the receiver's explicit requirement under PCMAC,
	// otherwise the scheme's choice.
	if m.scheme == PCMAC && f.WantDataPowerW > 0 {
		m.dataPowerW = power.Quantize(f.WantDataPowerW)
	} else {
		m.dataPowerW = m.powerFor(packet.KindData, j.dst)
	}
	// Paper Step 4: repeat the collision computation before DATA.
	if ok, _ := m.checkTolerance(m.dataPowerW); !ok {
		m.Stats.ToleranceDefer++
		m.retryShort++
		m.Stats.Retries++
		if m.retryShort > ShortRetryLimit {
			m.dropCur()
			return
		}
		m.retryAccess()
		return
	}
	m.st = stSendData
	m.after(SIFS, func() { m.sendData(j) })
}

// sendData transmits the DATA frame of the current exchange.
func (m *MAC) sendData(j *txJob) {
	if m.st != stSendData {
		return
	}
	var nav sim.Duration
	if !m.threeWay(j.np) {
		nav = SIFS + m.airCtl(packet.AckBytes)
	}
	f := &packet.Frame{
		Kind:     packet.KindData,
		Src:      m.id,
		Dst:      j.dst,
		Duration: nav,
		TxPowerW: m.dataPowerW,
		Extended: m.extended(),
		Session:  j.np.FlowID,
		Seq:      j.np.Seq,
		Payload:  j.np,
	}
	m.Stats.TxData++
	m.transmit(f, m.dataPowerW)
}

// onAck handles an ACK addressed to this node.
func (m *MAC) onAck(f *packet.Frame) {
	if m.st != stWaitAck || m.cur == nil || f.Src != m.cur.dst {
		return
	}
	np, dst := m.cur.np, m.cur.dst
	m.upper.MACTxDone(np, dst)
	m.finishExchange()
}

// onWaitTimeout fires when an expected CTS or ACK never arrived.
func (m *MAC) onWaitTimeout() {
	switch m.st {
	case stWaitCTS:
		m.Stats.CTSTimeout++
		// Paper Step 2: on CTS timeout, raise the power one class (until
		// maximal) and try again.
		if m.scheme.usesPowerControl() && m.cur != nil {
			if next, ok := power.StepUp(m.cur.powerW); ok {
				m.cur.powerW = next
			}
		}
		m.retryShort++
		m.Stats.Retries++
		if m.retryShort > ShortRetryLimit {
			m.dropCur()
			return
		}
		m.retryAccess()
	case stWaitAck:
		m.Stats.ACKTimeout++
		m.retryLong++
		m.Stats.Retries++
		if m.retryLong > LongRetryLimit {
			m.dropCur()
			return
		}
		m.retryAccess()
	}
}

// dropCur abandons the job in service after retry exhaustion and tells
// the upper layer (AODV treats it as a link break).
func (m *MAC) dropCur() {
	np, dst := m.cur.np, m.cur.dst
	m.Stats.DropRetry++
	if m.tr != nil {
		m.tr.Trace(trace.Record{
			At: m.sched.Now(), Op: trace.OpDrop, Node: m.id,
			Detail: fmt.Sprintf("retry-limit dst=%v %v", dst, np),
		})
	}
	m.upper.MACTxFailed(np, dst)
	m.finishExchange()
}

// --- receiver role ---------------------------------------------------

// onRTS handles an RTS addressed to this node.
func (m *MAC) onRTS(f *packet.Frame, rxPowerW float64) {
	// Respond only when not mid-exchange and the NAV permits.
	if m.st != stIdle && m.st != stAccess && m.st != stBlocked {
		return
	}
	if m.sched.Now() < m.nav {
		return
	}
	ctsPower, wantData := m.ctsPower(f, rxPowerW)
	// PCMAC: the CTS itself must not violate other receivers' budgets.
	if ok, _ := m.checkTolerance(ctsPower); !ok {
		m.Stats.ToleranceDefer++
		return
	}
	// Suspend any sender-side contention for the exchange.
	m.deferTimer.Stop()
	m.freezeBackoff()
	m.blockTimer.Stop()
	m.rxPeer = f.Src
	m.st = stRespond
	cts := &packet.Frame{
		Kind:     packet.KindCTS,
		Src:      m.id,
		Dst:      f.Src,
		TxPowerW: ctsPower,
		Extended: m.extended(),
	}
	if d := f.Duration - SIFS - m.airCtl(packet.CTSBytes); d > 0 {
		cts.Duration = d
	}
	if m.scheme == PCMAC {
		cts.WantDataPowerW = wantData
		if prev, ok := m.recv[f.Src]; ok {
			cts.HasLast = true
			cts.LastSession = prev.session
			cts.LastSeq = prev.seq
		}
	}
	m.after(SIFS, func() {
		if m.st != stRespond {
			return
		}
		m.Stats.TxCTS++
		m.transmit(cts, ctsPower)
	})
}

// ctsPower sizes the CTS (and, for PCMAC, the required DATA power) from
// the observed RTS. PCMAC's Step 3: the CTS must arrive at the sender
// above both the decode threshold and CP times the sender's announced
// noise; the required DATA power is the mirror-image computation with
// the local noise.
func (m *MAC) ctsPower(f *packet.Frame, rxPowerW float64) (ctsW, wantDataW float64) {
	if !m.scheme.controlled(packet.KindCTS) || f.TxPowerW <= 0 {
		ctsW = power.MaxW
	}
	gain := 0.0
	if f.TxPowerW > 0 {
		gain = rxPowerW / f.TxPowerW
	}
	if ctsW == 0 {
		// Power-controlled CTS.
		if gain <= 0 {
			ctsW = power.MaxW
		} else {
			needAtSender := phys.RxThreshW
			if m.scheme == PCMAC {
				needAtSender = math.Max(needAtSender, phys.CaptureRatio*f.SenderNoiseW)
			}
			ctsW = power.Quantize(needAtSender / gain * PowerMargin)
		}
	}
	if m.scheme == PCMAC && gain > 0 {
		needHere := math.Max(phys.RxThreshW, phys.CaptureRatio*m.localNoise())
		wantDataW = power.Quantize(needHere / gain * PowerMargin)
	}
	return ctsW, wantDataW
}

// onDataFrame handles a unicast DATA frame addressed to this node:
// either the DATA of an exchange we CTS'd, or an unsolicited
// basic-access DATA that arrived while we were idle.
func (m *MAC) onDataFrame(f *packet.Frame, rxPowerW float64) {
	switch {
	case m.st == stRxWaitData && f.Src == m.rxPeer:
		// Expected exchange DATA.
	case m.st == stIdle || m.st == stAccess || m.st == stBlocked:
		// Unsolicited basic-access DATA: enter the receiver role just
		// to acknowledge it.
		m.deferTimer.Stop()
		m.freezeBackoff()
		m.blockTimer.Stop()
		m.rxPeer = f.Src
	default:
		// Mid-exchange; ignore — the sender will retry.
		return
	}
	m.rxTimer.Stop()
	isData := f.Payload != nil && f.Payload.Proto == packet.ProtoUDP
	// Duplicate suppression against the received-table.
	dup := false
	if isData {
		if prev, ok := m.recv[f.Src]; ok && prev.session == f.Session && prev.seq == f.Seq {
			dup = true
		}
		m.recv[f.Src] = tableEntry{session: f.Session, seq: f.Seq}
	}
	if dup {
		m.Stats.Duplicates++
	} else {
		m.Stats.Delivered++
		m.upper.MACDeliver(f.Payload, f.Src)
	}
	if m.threeWay(f.Payload) {
		// Three-way handshake: no ACK (paper Step 7).
		m.exitReceiverRole()
		return
	}
	m.st = stRespond
	ack := &packet.Frame{
		Kind:     packet.KindAck,
		Src:      m.id,
		Dst:      f.Src,
		TxPowerW: m.powerFor(packet.KindAck, f.Src),
		Extended: m.extended(),
	}
	m.after(SIFS, func() {
		if m.st != stRespond {
			return
		}
		m.Stats.TxAck++
		m.transmit(ack, ack.TxPowerW)
	})
}

// onRxTimeout fires when the DATA never arrived after our CTS.
func (m *MAC) onRxTimeout() {
	if m.st != stRxWaitData {
		return
	}
	m.Stats.DataTimeout++
	m.exitReceiverRole()
}

// --- PCMAC route-change table maintenance -----------------------------

// ResetPeerState clears the sent/received table entries for a neighbour,
// called by the routing layer when a RREP/RERR changes the up/downstream
// relationship (paper Section III: tables are reset on route changes so
// stale sequence state cannot trigger spurious retransmissions).
func (m *MAC) ResetPeerState(peer packet.NodeID) {
	delete(m.sent, peer)
	delete(m.recv, peer)
}

// --- radio handler -----------------------------------------------------

// RadioRxBegin implements phys.Handler. PCMAC's Step 5: at the start of
// a DATA reception, measure signal and noise and broadcast the residual
// tolerance on the power-control channel.
func (m *MAC) RadioRxBegin(tx *phys.Transmission, rxPowerW float64) {
	if m.halted || m.scheme != PCMAC || m.ann == nil {
		return
	}
	f, ok := tx.Payload.(*packet.Frame)
	if !ok || f.Kind != packet.KindData || f.Dst != m.id {
		return
	}
	if f.Payload == nil || f.Payload.Proto != packet.ProtoUDP {
		return
	}
	// Interference() excludes the locked frame itself.
	tol := rxPowerW/phys.CaptureRatio - (phys.NoiseFloorW + m.radio.Interference())
	if tol < 0 {
		tol = 0
	}
	m.Stats.ToleranceAnnounce++
	if m.tr != nil {
		m.tr.Trace(trace.Record{
			At: m.sched.Now(), Op: trace.OpAnnounce, Node: m.id,
			Detail: fmt.Sprintf("tol=%.4gW until=%v", tol, tx.End()),
		})
	}
	m.ann.Announce(tol, tx.End())
}

// RadioRx implements phys.Handler: frame demultiplexing.
func (m *MAC) RadioRx(tx *phys.Transmission, rxPowerW float64, rxErr bool) {
	if m.halted {
		return
	}
	if rxErr {
		// Sensed but not decoded: defer EIFS (cancelled early if a
		// clean frame arrives in the meantime).
		m.Stats.RxError++
		if f, ok := tx.Payload.(*packet.Frame); ok && f.Dst == m.id {
			switch f.Kind {
			case packet.KindRTS:
				m.Stats.ErrRTSForMe++
			case packet.KindCTS:
				m.Stats.ErrCTSForMe++
			case packet.KindData:
				m.Stats.ErrDataForMe++
			case packet.KindAck:
				m.Stats.ErrAckForMe++
			}
		}
		if m.tr != nil {
			m.tr.Trace(trace.Record{At: m.sched.Now(), Op: trace.OpRecvErr, Node: m.id})
		}
		m.setEIFS(m.sched.Now().Add(EIFS()))
		return
	}
	f, ok := tx.Payload.(*packet.Frame)
	if !ok {
		return
	}
	m.clearEIFS()
	// Learn link gains from any decodable frame carrying its power.
	if m.history != nil && f.Extended && f.TxPowerW > 0 {
		m.history.Observe(f.Src, f.TxPowerW, rxPowerW)
	}
	if f.Dst == m.id {
		m.Stats.RxClean++
		if m.tr != nil {
			m.tr.Trace(trace.Record{
				At: m.sched.Now(), Op: trace.OpRecv, Node: m.id, Kind: f.Kind,
				Detail: fmt.Sprintf("src=%v", f.Src),
			})
		}
		switch f.Kind {
		case packet.KindRTS:
			m.onRTS(f, rxPowerW)
		case packet.KindCTS:
			m.onCTS(f, rxPowerW)
		case packet.KindData:
			m.onDataFrame(f, rxPowerW)
		case packet.KindAck:
			m.onAck(f)
		}
		return
	}
	if f.Dst == packet.Broadcast {
		m.Stats.RxClean++
		if f.Kind == packet.KindData && f.Payload != nil {
			m.upper.MACDeliver(f.Payload, f.Src)
		}
		return
	}
	// Overheard frame for someone else: honour its NAV reservation.
	m.Stats.RxOverheard++
	if f.Duration > 0 {
		m.setNAV(m.sched.Now().Add(f.Duration))
	}
}

// RadioTxDone implements phys.Handler: sequence the exchange after our
// own frame leaves the air.
func (m *MAC) RadioTxDone(tx *phys.Transmission) {
	if m.halted {
		return
	}
	f, ok := tx.Payload.(*packet.Frame)
	if !ok {
		return
	}
	switch f.Kind {
	case packet.KindRTS:
		if m.st == stWaitCTS {
			m.waitTimer.Start(ctsTimeout())
		}
	case packet.KindCTS:
		if m.st == stRespond {
			m.st = stRxWaitData
			m.rxTimer.Start(dataTimeout())
		}
	case packet.KindData:
		switch {
		case f.Dst == packet.Broadcast:
			if m.cur != nil {
				np, _ := m.cur.np, m.cur.dst
				m.upper.MACTxDone(np, packet.Broadcast)
			}
			m.finishExchange()
		case m.st == stSendData && m.threeWay(f.Payload):
			// Three-way: transmission complete; retain a copy for the
			// implicit-ack retransmission and report success.
			j := m.cur
			m.sent[j.dst] = tableEntry{session: j.np.FlowID, seq: j.np.Seq, copy: j.np.Clone()}
			m.upper.MACTxDone(j.np, j.dst)
			m.finishExchange()
		case m.st == stSendData:
			m.st = stWaitAck
			m.waitTimer.Start(ackTimeout())
		}
	case packet.KindAck:
		if m.st == stRespond {
			m.exitReceiverRole()
		}
	}
}

// RadioCarrierBusy implements phys.Handler.
func (m *MAC) RadioCarrierBusy() {
	if m.halted {
		return
	}
	m.syncChannelState()
}

// RadioCarrierIdle implements phys.Handler.
func (m *MAC) RadioCarrierIdle() {
	if m.halted {
		return
	}
	m.syncChannelState()
}

var _ phys.Handler = (*MAC)(nil)
