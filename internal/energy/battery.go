package energy

import (
	"fmt"

	"repro/internal/sim"
)

// Battery is one node's shared charge store. Several accountants can
// drain it — a PCMAC terminal's data radio and its always-on
// power-control receiver draw from the same pack — and depletion is
// predicted in closed form from the summed draw, so death lands at the
// exact instant the last joule leaves. A capacity of zero is a
// mains-powered (inert) battery: it schedules nothing and never dies,
// preserving the accountants' pure-observer property.
type Battery struct {
	sched *sim.Scheduler

	capacityJ float64
	residualJ float64
	drains    []*Accountant

	timer        *sim.Timer
	dead         bool
	pendingDeath bool
	diedAt       sim.Time

	// OnDeath fires once, at the exact depletion instant (deferred to
	// the frame boundary if the charge runs out while a radio is
	// mid-transmission). The scenario layer uses it to power the
	// node's radios off and halt its MAC.
	OnDeath func()
}

// NewBattery creates a battery on the scheduler's clock. capacityJ of
// zero means mains-powered.
func NewBattery(sched *sim.Scheduler, capacityJ float64) *Battery {
	if capacityJ < 0 {
		panic(fmt.Sprintf("energy: negative battery capacity %g J", capacityJ))
	}
	b := &Battery{sched: sched, capacityJ: capacityJ, residualJ: capacityJ}
	if capacityJ > 0 {
		b.timer = sim.NewTimer(sched, b.onTimer)
	}
	return b
}

// CapacityJ returns the configured capacity (0 = mains).
func (b *Battery) CapacityJ() float64 { return b.capacityJ }

// ResidualJ returns the remaining charge; 0 when mains-powered.
func (b *Battery) ResidualJ() float64 { return b.residualJ }

// Dead reports whether the battery has depleted.
func (b *Battery) Dead() bool { return b.dead }

// DiedAt returns the depletion instant; ok is false while alive.
func (b *Battery) DiedAt() (t sim.Time, ok bool) { return b.diedAt, b.dead }

// SetCapacity replaces the charge at the current instant, retaining
// everything already consumed. Tests and tools use it to hand
// individual nodes asymmetric batteries after a network is built; a
// capacity of zero returns the pack to mains, where it never dies.
func (b *Battery) SetCapacity(j float64) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative battery capacity %g J", j))
	}
	if b.dead {
		panic("energy: SetCapacity on a dead battery")
	}
	b.settle()
	// A recharge during the mid-transmission death-deferral window
	// cancels the pending death: there is charge again, so the frame
	// boundary is no longer a depletion instant.
	b.pendingDeath = false
	b.capacityJ = j
	b.residualJ = j
	for _, a := range b.drains {
		a.metered = j > 0
	}
	if j == 0 {
		// Back on mains: nothing is predicted, so nothing can die.
		if b.timer != nil {
			b.timer.Stop()
		}
		return
	}
	if b.timer == nil {
		b.timer = sim.NewTimer(b.sched, b.onTimer)
	}
	b.rearm()
}

// attach registers a drawing accountant. It is metered exactly when
// the battery holds a capacity.
func (b *Battery) attach(a *Accountant) {
	b.drains = append(b.drains, a)
	a.bat = b
	a.metered = b.capacityJ > 0
}

// settle accrues every drain up to the current instant.
func (b *Battery) settle() {
	for _, a := range b.drains {
		a.accrue()
	}
}

// drain removes consumed joules; called from Accountant.accrue.
func (b *Battery) drain(j float64) {
	if b.capacityJ <= 0 || b.dead {
		return
	}
	b.residualJ -= j
	if b.residualJ < 0 {
		b.residualJ = 0
	}
}

// totalDrawW sums the attached accountants' instantaneous draw.
func (b *Battery) totalDrawW() float64 {
	var w float64
	for _, a := range b.drains {
		w += a.drawW(a.stateNow())
	}
	return w
}

func (b *Battery) anyTransmitting() bool {
	for _, a := range b.drains {
		if a.transmitting {
			return true
		}
	}
	return false
}

// rearm (re)schedules the death timer for the current summed draw. The
// draw is constant between transitions of the attached accountants,
// each of which calls back here, so the prediction is exact — but only
// after settling every drain: the transitioning accountant has accrued
// itself, while its siblings' consumption since *their* last
// transition is not yet reflected in residualJ.
func (b *Battery) rearm() {
	if b.timer == nil || b.dead || b.pendingDeath {
		return
	}
	b.settle()
	w := b.totalDrawW()
	if w <= 0 {
		b.timer.Stop()
		return
	}
	sec := b.residualJ / w
	// A deadline beyond ~146 years of simulated time cannot land inside
	// any run (and would overflow the nanosecond clock): the node is
	// immortal at this draw, so park the timer until the draw changes.
	const maxSec = float64(1<<62) / float64(sim.Second)
	if sec > maxSec {
		b.timer.Stop()
		return
	}
	d := sim.DurationOf(sec)
	if d <= 0 {
		d = sim.Nanosecond // deadline rounded to now: settle next tick
	}
	b.timer.Start(d)
}

// onTimer fires at the predicted depletion instant.
func (b *Battery) onTimer() {
	b.settle()
	if b.residualJ > depletedEpsJ {
		// The draw changed since prediction, or the deadline rounded
		// early by a fraction of a nanosecond; re-predict.
		b.rearm()
		return
	}
	if b.anyTransmitting() {
		// Empty mid-frame: the transmission on the air completes (its
		// radiated energy left the antenna) and death lands on the
		// frame boundary.
		b.pendingDeath = true
		return
	}
	b.die()
}

// txEnded is called by an attached accountant when its radio's own
// frame leaves the air — the instant a deferred death lands.
func (b *Battery) txEnded() {
	if b.pendingDeath && !b.anyTransmitting() {
		b.settle()
		b.die()
		return
	}
	b.rearm()
}

// die marks the node dead and notifies the owner exactly once.
func (b *Battery) die() {
	b.pendingDeath = false
	b.dead = true
	b.diedAt = b.sched.Now()
	b.residualJ = 0
	if b.timer != nil {
		b.timer.Stop()
	}
	for _, a := range b.drains {
		a.dead = true
	}
	if b.OnDeath != nil {
		b.OnDeath()
	}
}
