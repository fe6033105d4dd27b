package energy

import (
	"fmt"

	"repro/internal/sim"
)

// State is one of the radio's energy states.
type State uint8

// The radio energy states. Rx and Overhear draw the same power — the
// receive chain cannot know mid-frame whom a frame is for — but are
// accounted separately: overhearing is the cost a MAC can only avoid by
// switching its radio off, and the split is what makes idle/overhear-dominated budgets
// visible next to the radiated-TX-only view.
const (
	Idle State = iota
	Tx
	Rx
	Overhear
	Off
	NumStates
)

func (s State) String() string {
	names := [...]string{"idle", "tx", "rx", "overhear", "off"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Breakdown is joules accounted per state.
type Breakdown [NumStates]float64

// Total returns the summed consumption across states.
func (b Breakdown) Total() float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// AddFrom accumulates another breakdown into b.
func (b *Breakdown) AddFrom(o Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// Config parameterizes one radio's accountant.
type Config struct {
	// Profile is the hardware draw table (zero value: WaveLAN).
	Profile Profile
	// CapacityJ creates a dedicated battery of this capacity in joules;
	// 0 means mains-powered (no battery, no death, and — critically —
	// no scheduler events, so the accountant is a pure observer).
	// Ignored when Battery is set.
	CapacityJ float64
	// Battery, when non-nil, attaches the accountant to an existing
	// (possibly shared) battery instead of creating one — how a PCMAC
	// node's control-channel receiver drains the same pack as its data
	// radio.
	Battery *Battery
}

// depletedEpsJ is the residual below which a battery counts as empty;
// it absorbs the sub-nanosecond rounding of the death-timer deadline.
const depletedEpsJ = 1e-12

// Accountant integrates one radio's electrical energy over the
// simulation. It is driven by the radio's state edges
// (phys.Radio.SetAccountant); all methods run on the simulation
// goroutine. The hot path is allocation-free:
// each transition is an O(1) accrual against the running clock.
type Accountant struct {
	prof  Profile
	sched *sim.Scheduler
	bat   *Battery
	// metered caches whether bat holds a capacity (Battery.attach and
	// Battery.SetCapacity keep it current). A mains accountant never
	// calls into its battery: drain, rearm and txEnded are all no-ops
	// without a capacity.
	metered bool

	last sim.Time

	// Radio state inputs, priority-ordered by stateNow.
	dead         bool
	transmitting bool
	txRadiatedW  float64
	locked       bool
	carrier      bool

	// lockJ/lockS track the current lock's accrual so it can be
	// reclassified Rx→Overhear when the frame turns out not to be for
	// this node (or the reception is aborted by our own transmission).
	lockJ, lockS float64

	consumedJ Breakdown
	timeS     [NumStates]float64
}

// NewAccountant creates an accountant on the scheduler's clock,
// attached to cfg.Battery or to a fresh battery of cfg.CapacityJ. A
// zero Profile takes the WaveLAN default; the profile must validate.
func NewAccountant(sched *sim.Scheduler, cfg Config) *Accountant {
	a := new(Accountant)
	a.Init(sched, cfg)
	return a
}

// Init makes the zero Accountant a the one NewAccountant would return,
// in memory the caller owns (a scenario keeps each node's data-radio
// accountant in one per-node block). Its battery holds a from here on,
// so a must not move or be copied.
func (a *Accountant) Init(sched *sim.Scheduler, cfg Config) {
	prof := cfg.Profile
	if prof == (Profile{}) {
		prof = WaveLAN()
	}
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	*a = Accountant{
		prof:  prof,
		sched: sched,
		last:  sched.Now(),
	}
	bat := cfg.Battery
	if bat == nil {
		bat = NewBattery(sched, cfg.CapacityJ)
	}
	bat.attach(a)
	a.rearm()
}

// Profile returns the draw table in effect.
func (a *Accountant) Profile() Profile { return a.prof }

// Battery returns the (possibly shared, possibly mains/inert) battery
// the accountant drains.
func (a *Accountant) Battery() *Battery { return a.bat }

// stateNow resolves the current energy state from the radio inputs.
func (a *Accountant) stateNow() State {
	switch {
	case a.dead:
		return Off
	case a.transmitting:
		return Tx
	case a.locked:
		return Rx // reclassified at lock end if the frame was not ours
	case a.carrier:
		return Overhear // sensed-busy but not decoding: wasted listening
	default:
		return Idle
	}
}

// drawW returns the electrical draw of a state.
func (a *Accountant) drawW(s State) float64 {
	switch s {
	case Off:
		return 0
	case Tx:
		return a.prof.TxCircuitW + a.txRadiatedW
	case Rx, Overhear:
		return a.prof.RxW
	default:
		return a.prof.IdleW
	}
}

// accrue charges the span since the last transition to the current
// state and advances the clock.
func (a *Accountant) accrue() {
	now := a.sched.Now()
	if now <= a.last {
		return
	}
	dt := now.Sub(a.last).Seconds()
	a.last = now
	s := a.stateNow()
	j := a.drawW(s) * dt
	a.consumedJ[s] += j
	a.timeS[s] += dt
	if s == Rx {
		a.lockJ += j
		a.lockS += dt
	}
	if a.metered {
		a.bat.drain(j)
	}
}

// rearm re-predicts the battery's death after a draw change.
func (a *Accountant) rearm() {
	if a.metered {
		a.bat.rearm()
	}
}

// abortLock reclassifies the current lock's accrual as overhearing
// (the reception will never be delivered) and clears the lock.
func (a *Accountant) abortLock() {
	a.consumedJ[Rx] -= a.lockJ
	a.consumedJ[Overhear] += a.lockJ
	a.timeS[Rx] -= a.lockS
	a.timeS[Overhear] += a.lockS
	a.locked = false
	a.lockJ, a.lockS = 0, 0
}

// TxStart records the radio beginning to emit at the given radiated
// power. Any in-progress lock was just killed by the half-duplex radio;
// its span counts as overhearing.
func (a *Accountant) TxStart(radiatedW float64) {
	a.accrue()
	if a.locked {
		a.abortLock()
	}
	a.transmitting = true
	a.txRadiatedW = radiatedW
	a.rearm()
}

// TxEnd records the radio's own frame leaving the air — where a death
// deferred past the frame boundary lands.
func (a *Accountant) TxEnd() {
	a.accrue()
	a.transmitting = false
	a.txRadiatedW = 0
	if a.metered {
		a.bat.txEnded()
	}
}

// LockStart records the receive chain locking onto an arriving frame.
func (a *Accountant) LockStart() {
	a.accrue()
	a.locked = true
	a.lockJ, a.lockS = 0, 0
	a.rearm()
}

// LockEnd records the locked frame's end. received reports whether the
// frame was cleanly decoded and addressed to this node (or broadcast);
// anything else — corrupted, or someone else's traffic — was
// overhearing.
func (a *Accountant) LockEnd(received bool) {
	a.accrue()
	if !received {
		a.abortLock()
	} else {
		a.locked = false
		a.lockJ, a.lockS = 0, 0
	}
	a.rearm()
}

// CarrierBusy / CarrierIdle record physical carrier-sense transitions.
func (a *Accountant) CarrierBusy() {
	a.accrue()
	a.carrier = true
	a.rearm()
}

// CarrierIdle records the medium going quiet.
func (a *Accountant) CarrierIdle() {
	a.accrue()
	a.carrier = false
	a.rearm()
}

// Flush settles consumption up to the current instant; call it before
// reading metrics at the end of a run.
func (a *Accountant) Flush() { a.accrue() }

// Consumed returns the per-state joules accounted so far (call Flush
// first for an up-to-the-instant view).
func (a *Accountant) Consumed() Breakdown { return a.consumedJ }

// ConsumedJ returns total joules across all states.
func (a *Accountant) ConsumedJ() float64 { return a.consumedJ.Total() }

// StateSeconds returns the time spent in a state.
func (a *Accountant) StateSeconds(s State) float64 { return a.timeS[s] }

// ResidualJ returns the battery's remaining charge; 0 without one.
func (a *Accountant) ResidualJ() float64 { return a.bat.ResidualJ() }

// Dead reports whether the attached battery has depleted.
func (a *Accountant) Dead() bool { return a.dead }

// DiedAt returns the depletion instant; ok is false while alive.
func (a *Accountant) DiedAt() (t sim.Time, ok bool) { return a.bat.DiedAt() }

// SetCapacity replaces the attached battery's charge at the current
// instant (see Battery.SetCapacity).
func (a *Accountant) SetCapacity(j float64) { a.bat.SetCapacity(j) }
