package phys

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/sim"
)

// Handler receives physical-layer events. The MAC layer implements it.
// All callbacks run on the simulation goroutine.
type Handler interface {
	// RadioRxBegin fires when the radio locks onto an arriving frame
	// (preamble acquired). PCMAC's receiver uses this instant to measure
	// signal and interference and announce its noise tolerance.
	RadioRxBegin(tx *Transmission, rxPowerW float64)
	// RadioRx fires when an arrival ends. err is true when the frame
	// could be sensed but not decoded — too weak, collided, or arrived
	// while the radio was busy — the condition that triggers the 802.11
	// EIFS defer. Clean receptions have err == false.
	RadioRx(tx *Transmission, rxPowerW float64, err bool)
	// RadioCarrierBusy / RadioCarrierIdle report physical carrier-sense
	// transitions (total in-band power crossing CsThresh, or own
	// transmission starting/ending).
	RadioCarrierBusy()
	RadioCarrierIdle()
	// RadioTxDone fires when this radio's own transmission leaves the
	// air.
	RadioTxDone(tx *Transmission)
}

// Typed event kinds dispatched to Radio.HandleEvent. Using typed events
// instead of closures keeps the two-per-receiver-per-frame arrival
// events allocation-free (they ride the scheduler's event pool).
const (
	evBeginArrival int32 = iota
	evEndArrival
	evTxDone
)

// arrival is the per-radio bookkeeping for one in-flight transmission.
type arrival struct {
	tx     *Transmission
	powerW float64
	locked bool    // radio is decoding this frame
	peakIn float64 // worst interference seen while locked
	killed bool    // radio started transmitting during the lock
}

// Radio is a half-duplex transceiver attached to one Channel. It
// implements an SINR/capture reception model:
// it locks onto the first decodable arrival, accumulates all other
// arriving power as interference, and delivers the frame corrupted if
// the worst-case SINR during the lock fell below the capture ratio.
//
// Arrivals live in a small slice ordered by arrival time and the in-band
// power sum is maintained incrementally. That fixes the summation order
// — the previous map-backed implementation summed float64 power in Go's
// randomised map iteration order, which can round differently between
// runs and silently break byte-identical reproducibility — and makes
// the begin/end bookkeeping allocation-free.
type Radio struct {
	ch  *Channel
	id  int
	idx int // position in Channel.radios (attach order; grid sort key)
	pos func() geom.Point
	h   Handler

	txUntil   sim.Time // end of own transmission, 0 when idle
	currentTx *Transmission

	// arrivals holds in-flight frames in arrival order; current indexes
	// the locked arrival (-1 when none). totalW is the incrementally
	// maintained sum of all arrival powers, reset to exactly zero when
	// the last arrival ends so rounding drift cannot accumulate across
	// quiet periods.
	arrivals []arrival
	current  int
	totalW   float64

	// rows caches this radio's outgoing link rows, one per discrete
	// power level, sorted ascending by power. A float-keyed map here
	// costs a hash + bucket probe on every frame; with the paper's ten
	// levels a sorted-slice scan wins by ~4x and allocates nothing
	// (BenchmarkLinkRowLookup).
	rows []powerRow

	busy bool // last carrier state reported to the handler

	// off marks a powered-down radio (battery death): it neither
	// transmits, receives, nor senses, and handler callbacks are
	// suppressed. Arrival bookkeeping continues so the in-band power
	// sums stay consistent if the radio is powered back up.
	off bool

	// acct, when non-nil, meters the radio's electrical draw: every
	// state edge (lock start and end, carrier busy/idle, tx start and
	// done) reaches it just before the handler. forUs classifies a
	// cleanly decoded payload as addressed to this node (or broadcast);
	// any other lock was overhearing.
	acct  *energy.Accountant
	forUs func(payload any) bool

	// EnergyTxJ accumulates radiated energy, the quantity power control
	// trades against capacity.
	EnergyTxJ float64
}

// powerRow pairs one discrete transmit power level with its cached
// link row.
type powerRow struct {
	powerW float64
	row    linkRow
}

// rowFor returns the cached link row for a power level, inserting an
// empty one in sorted position on first use. cached reports whether
// the row existed (its validity stamps are meaningful). The returned
// pointer is valid until the next insertion; callers use it within one
// transmit. MAC power dials have ~10 discrete levels, so the scan is a
// handful of compares on the per-frame hot path.
func (r *Radio) rowFor(powerW float64) (row *linkRow, cached bool) {
	rows := r.rows
	for i := range rows {
		if rows[i].powerW == powerW {
			return &rows[i].row, true
		}
		if rows[i].powerW > powerW {
			r.rows = append(r.rows, powerRow{})
			copy(r.rows[i+1:], r.rows[i:])
			r.rows[i] = powerRow{powerW: powerW}
			return &r.rows[i].row, false
		}
	}
	r.rows = append(r.rows, powerRow{powerW: powerW})
	return &r.rows[len(r.rows)-1].row, false
}

// ID returns the identifier given at attach time.
func (r *Radio) ID() int { return r.id }

// Pos returns the radio's current position.
func (r *Radio) Pos() geom.Point { return r.pos() }

// Channel returns the channel the radio is attached to.
func (r *Radio) Channel() *Channel { return r.ch }

// Transmitting reports whether the radio is currently emitting.
func (r *Radio) Transmitting() bool { return r.txUntil > r.ch.sched.Now() }

// Receiving reports whether the radio is locked onto a frame.
func (r *Radio) Receiving() bool { return r.current >= 0 }

// CurrentRxPower returns the locked frame's received power, or 0 when
// the radio is not receiving.
func (r *Radio) CurrentRxPower() float64 {
	if r.current < 0 {
		return 0
	}
	return r.arrivals[r.current].powerW
}

// Interference returns the summed power of all non-locked arrivals. The
// value is derived from the maintained total, so it is independent of
// arrival storage order and identical across runs.
func (r *Radio) Interference() float64 {
	if r.current < 0 {
		return r.totalW
	}
	return r.totalW - r.arrivals[r.current].powerW
}

// TotalPower returns all in-band power at the antenna.
func (r *Radio) TotalPower() float64 { return r.totalW }

// CarrierBusy reports physical carrier sense: own transmission, or total
// in-band power at or above the carrier-sense threshold. A powered-down
// radio senses nothing.
func (r *Radio) CarrierBusy() bool {
	return !r.off && (r.Transmitting() || r.TotalPower() >= r.ch.par.CsThreshW)
}

// SetAccountant makes the radio report its state edges to acct (nil
// disables metering). forUs sees the raw payload of each cleanly decoded
// locked frame (a *packet.Frame for MAC radios) and must be non-nil with
// an accountant. Metering is pure observation: it adds no events of its
// own unless acct's battery is finite.
func (r *Radio) SetAccountant(acct *energy.Accountant, forUs func(payload any) bool) {
	if acct != nil && forUs == nil {
		panic("phys: SetAccountant requires a payload classifier")
	}
	r.acct, r.forUs = acct, forUs
}

// Off reports whether the radio is powered down.
func (r *Radio) Off() bool { return r.off }

// SetOff powers the radio down or back up. While off the radio neither
// transmits (Transmit is a silent no-op), receives, nor senses carrier,
// and no handler callbacks fire — the physical feedback of a battery
// death. Any in-progress reception is aborted without delivery; an
// in-flight own transmission is unaffected (the accountant defers death
// to the frame boundary, and the radiated energy has left the antenna
// regardless).
func (r *Radio) SetOff(off bool) {
	if r.off == off {
		return
	}
	r.off = off
	if off {
		if r.current >= 0 {
			r.arrivals[r.current].killed = true
			r.arrivals[r.current].locked = false
			r.current = -1
		}
		// Drop the reported carrier silently: the handler is being
		// halted by the same death that powers the radio off.
		r.busy = false
		return
	}
	r.updateCarrier()
}

// HandleEvent implements sim.EventHandler, dispatching the channel's
// typed arrival and tx-done events. Not intended to be called directly.
func (r *Radio) HandleEvent(kind int32, arg any, x float64) {
	switch kind {
	case evBeginArrival:
		r.beginArrival(arg.(*Transmission), x)
	case evEndArrival:
		r.endArrival(arg.(*Transmission))
	case evTxDone:
		r.currentTx = nil
		r.updateCarrier()
		if r.acct != nil {
			r.acct.TxEnd()
		}
		r.h.RadioTxDone(arg.(*Transmission))
	default:
		panic(fmt.Sprintf("phys: radio %d unknown event kind %d", r.id, kind))
	}
}

// Transmit puts a frame of the given size on the air at powerW watts for
// dur. Transmitting while already transmitting panics (a MAC bug);
// transmitting while receiving silently aborts the reception, as real
// half-duplex hardware would.
func (r *Radio) Transmit(powerW float64, bits int, dur sim.Duration, payload any) *Transmission {
	if r.off {
		// Powered down: the frame never reaches the air. Callers ignore
		// the returned handle on this path (a dead node's MAC is halted;
		// only stragglers like an in-flight control-channel retry land
		// here).
		return nil
	}
	if r.Transmitting() {
		panic(fmt.Sprintf("phys: radio %d transmit while transmitting", r.id))
	}
	if powerW <= 0 || dur <= 0 {
		panic(fmt.Sprintf("phys: radio %d invalid transmit power=%g dur=%d", r.id, powerW, dur))
	}
	if r.current >= 0 {
		// Abort the in-progress reception: the frame will not be
		// delivered, and its power is plain interference from now on.
		r.arrivals[r.current].killed = true
		r.arrivals[r.current].locked = false
		r.current = -1
	}
	now := r.ch.sched.Now()
	r.txUntil = now.Add(dur)
	tx := r.ch.transmit(r, powerW, bits, dur, payload)
	r.currentTx = tx
	r.EnergyTxJ += powerW * dur.Seconds()
	if r.acct != nil {
		// Meter TX at the selected level; this also ends, as
		// overhearing, the lock the transmission just killed.
		r.acct.TxStart(powerW)
	}
	r.ch.sched.ScheduleEvent(dur, r, evTxDone, tx, 0)
	r.updateCarrier()
	return tx
}

// beginArrival is called by the channel when a transmission's leading
// edge reaches this radio.
func (r *Radio) beginArrival(tx *Transmission, powerW float64) {
	// Interference from everything already on the air, before this
	// arrival is registered.
	others := r.Interference()
	r.arrivals = append(r.arrivals, arrival{tx: tx, powerW: powerW})
	r.totalW += powerW
	par := r.ch.par
	canLock := !r.off && !r.Transmitting() && r.current < 0 &&
		powerW >= par.RxThreshW &&
		powerW >= par.CaptureRatio*(par.NoiseFloorW+others)
	if canLock {
		// Preamble acquired: decode this frame, tracking the worst
		// interference seen until its end.
		i := len(r.arrivals) - 1
		r.arrivals[i].locked = true
		r.arrivals[i].peakIn = others
		r.current = i
		r.updateCarrier()
		if r.acct != nil {
			r.acct.LockStart()
		}
		r.h.RadioRxBegin(tx, powerW)
		return
	}
	// The arrival is interference. If a frame is being decoded, the
	// interference level just rose; remember the peak.
	if r.current >= 0 {
		if in := r.Interference(); in > r.arrivals[r.current].peakIn {
			r.arrivals[r.current].peakIn = in
		}
	}
	r.updateCarrier()
}

// endArrival is called by the channel when a transmission's trailing
// edge passes this radio.
func (r *Radio) endArrival(tx *Transmission) {
	i := -1
	for j := range r.arrivals {
		if r.arrivals[j].tx == tx {
			i = j
			break
		}
	}
	if i < 0 {
		return
	}
	a := r.arrivals[i]
	// Remove preserving arrival order, so the summation order over the
	// remaining set stays the arrival order.
	copy(r.arrivals[i:], r.arrivals[i+1:])
	r.arrivals[len(r.arrivals)-1] = arrival{}
	r.arrivals = r.arrivals[:len(r.arrivals)-1]
	switch {
	case r.current == i:
		r.current = -1 // the locked arrival itself ended (handled below)
	case r.current > i:
		r.current--
	}
	r.totalW -= a.powerW
	if len(r.arrivals) == 0 {
		r.totalW = 0 // drop accumulated rounding drift at quiet points
	}
	par := r.ch.par
	switch {
	case a.killed:
		// Reception aborted by our own transmission: drop silently.
	case a.locked:
		sinrOK := a.powerW >= par.CaptureRatio*(par.NoiseFloorW+a.peakIn)
		r.updateCarrier()
		if r.acct != nil {
			r.acct.LockEnd(sinrOK && r.forUs(tx.Payload))
		}
		r.h.RadioRx(tx, a.powerW, !sinrOK)
		return
	case a.powerW >= par.CsThreshW && !r.Transmitting() && !r.off:
		// Sensed but never decoded: report as an errored reception so
		// the MAC can apply its EIFS defer.
		r.updateCarrier()
		r.h.RadioRx(tx, a.powerW, true)
		return
	}
	r.updateCarrier()
}

// updateCarrier reports busy/idle edges to the handler.
func (r *Radio) updateCarrier() {
	b := r.CarrierBusy()
	if b == r.busy {
		return
	}
	r.busy = b
	if b {
		if r.acct != nil {
			r.acct.CarrierBusy()
		}
		r.h.RadioCarrierBusy()
	} else {
		if r.acct != nil {
			r.acct.CarrierIdle()
		}
		r.h.RadioCarrierIdle()
	}
}
