package power

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// ToleranceEntry is one active reception announced on the power-control
// channel: which node is receiving, how much extra noise it can absorb,
// the gain from us to it (learned from the broadcast itself, which is
// always sent at maximum power), and when the reception ends.
type ToleranceEntry struct {
	ToleranceW float64
	Gain       float64
	Until      sim.Time
}

// Registry tracks the noise tolerances of nearby active receivers, fed
// by power-control channel broadcasts. Before transmitting at power P a
// PCMAC terminal checks, for every fresh entry C, that
// P * Gain(C) <= SafetyFactor * Tolerance(C) — the paper's Step 2
// constraint with its 0.7 redundancy coefficient.
type Registry struct {
	// SafetyFactor is the paper's 0.7: headroom for tolerance
	// fluctuation and for several contenders arriving at once.
	SafetyFactor float64

	clock   func() sim.Time
	entries map[packet.NodeID]ToleranceEntry
}

// NewRegistry returns an empty registry with the given safety factor.
func NewRegistry(clock func() sim.Time, safetyFactor float64) *Registry {
	return &Registry{
		SafetyFactor: safetyFactor,
		clock:        clock,
		entries:      make(map[packet.NodeID]ToleranceEntry),
	}
}

// Note records an announcement from node id: it can still absorb tolW of
// noise until the reception ends at until; gain is the propagation gain
// from us to the announcer.
func (r *Registry) Note(id packet.NodeID, tolW, gain float64, until sim.Time) {
	r.entries[id] = ToleranceEntry{ToleranceW: tolW, Gain: gain, Until: until}
}

// Drop removes the entry for id (e.g. the reception was announced over).
func (r *Registry) Drop(id packet.NodeID) { delete(r.entries, id) }

// Check reports whether transmitting at powerW now would violate any
// active receiver's tolerance budget. When blocked, wait is how long
// until the last blocking reception completes — the paper's "back off
// until the current reception is completed".
func (r *Registry) Check(powerW float64) (ok bool, wait sim.Duration) {
	now := r.clock()
	ok = true
	for id, e := range r.entries {
		if now >= e.Until {
			delete(r.entries, id)
			continue
		}
		if powerW*e.Gain > r.SafetyFactor*e.ToleranceW {
			ok = false
			if w := e.Until.Sub(now); w > wait {
				wait = w
			}
		}
	}
	return ok, wait
}

// Active returns the number of fresh entries.
func (r *Registry) Active() int {
	now := r.clock()
	n := 0
	for id, e := range r.entries {
		if now >= e.Until {
			delete(r.entries, id)
			continue
		}
		n++
	}
	return n
}
