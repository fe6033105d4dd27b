// Package ctrl implements PCMAC's separate power-control channel: a
// 500 kbps broadcast channel on which a receiver announces, at the
// normal (maximal) power level, how much additional noise it can
// tolerate while a DATA reception is in progress. Announcements use the
// exact Figure 7 frame layout (6 bytes, FEC-protected) and are subject
// to collisions on the control channel like any other transmission
// (paper assumption 3).
package ctrl

import (
	"fmt"
	"math/rand"

	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
)

// The control channel's fixed parameters.
const (
	// maxDefer bounds the random deferral when the control channel is
	// busy at announce time.
	maxDefer = 200 * sim.Microsecond
	// maxRetries is how many times a deferred announcement is retried
	// before being abandoned (it protects a reception of a few
	// milliseconds; retrying beyond that is useless).
	maxRetries = 2
)

// dataAirTime is the airtime of one fixed-length DATA frame; listeners
// use it to bound how long an announced reception can last (paper
// assumption 4: fixed 512-byte packets make the remaining reception time
// computable).
var dataAirTime = mac.MaxDataAirTime()

// Stats counts control-channel events for one node.
type Stats struct {
	// Sent counts announcements transmitted; Skipped counts
	// announcements abandoned (channel busy through all retries or
	// radio mid-transmission).
	Sent, Skipped uint64
	// Received counts announcements decoded; Corrupted counts control
	// frames sensed but not decoded (control-channel collisions).
	Received, Corrupted uint64
	// Malformed counts frames that decoded at the physical layer but
	// failed the Figure 7 codec (preamble/FEC).
	Malformed uint64
}

// Agent is one node's endpoint on the power-control channel. It
// implements mac.Announcer on the transmit side and feeds the node's
// tolerance registry on the receive side.
type Agent struct {
	// bitRateBps is the control channel bandwidth (500 kbps in the
	// paper).
	bitRateBps float64
	id         packet.NodeID
	sched      *sim.Scheduler
	radio      *phys.Radio
	registry   *power.Registry
	rng        *rand.Rand

	// Stats counts this agent's control-channel events.
	Stats Stats
}

// NewAgent creates a control-channel agent for node id on a channel of
// bitRateBps, feeding received announcements into registry. The node ID
// must fit the 8-bit Figure 7 field.
func NewAgent(bitRateBps float64, id packet.NodeID, sched *sim.Scheduler, registry *power.Registry, rng *rand.Rand) (*Agent, error) {
	if id > 0xFF {
		return nil, fmt.Errorf("ctrl: node ID %d exceeds the 8-bit control frame field", id)
	}
	if bitRateBps <= 0 {
		return nil, fmt.Errorf("ctrl: invalid bit rate %g", bitRateBps)
	}
	return &Agent{bitRateBps: bitRateBps, id: id, sched: sched, registry: registry, rng: rng}, nil
}

// BindRadio attaches the agent's radio on the control channel. Must be
// called once before use.
func (a *Agent) BindRadio(r *phys.Radio) {
	if a.radio != nil {
		panic("ctrl: BindRadio called twice")
	}
	a.radio = r
}

// Radio returns the bound control-channel radio (nil before BindRadio).
// The scenario layer powers it off when the node's battery dies.
func (a *Agent) Radio() *phys.Radio { return a.radio }

// airTime returns a control frame's airtime: its 48 bits at the channel
// rate (the 16-bit preamble is part of the Figure 7 frame itself).
func (a *Agent) airTime() sim.Duration {
	return sim.DurationOf(float64(packet.CtrlFrameBytes*8) / a.bitRateBps)
}

// Announce implements mac.Announcer: broadcast the node's residual noise
// tolerance. CSMA with a bounded number of random deferrals: control
// frames are kept short precisely so collisions stay rare (assumption
// 3), so an agent that cannot get through quickly gives up rather than
// announce a reception that is already over.
func (a *Agent) Announce(tolW float64, until sim.Time) {
	a.try(tolW, until, maxRetries)
}

func (a *Agent) try(tolW float64, until sim.Time, retries int) {
	if a.radio.Off() {
		// Battery death between the announce decision and a deferred
		// retry: the radio is gone, the announcement with it.
		a.Stats.Skipped++
		return
	}
	now := a.sched.Now()
	if now.Add(a.airTime()) >= until {
		// The reception would end before the announcement lands.
		a.Stats.Skipped++
		return
	}
	if a.radio.Transmitting() || a.radio.CarrierBusy() {
		if retries <= 0 {
			a.Stats.Skipped++
			return
		}
		defer_ := sim.Duration(1 + a.rng.Int63n(int64(maxDefer)))
		a.sched.Schedule(defer_, func() { a.try(tolW, until, retries-1) })
		return
	}
	f := packet.CtrlFrame{Node: a.id, ToleranceW: tolW}
	wire, err := f.Marshal()
	if err != nil {
		// Construction guarantees the ID fits; tolerances always encode.
		panic(err)
	}
	a.Stats.Sent++
	a.radio.Transmit(power.MaxW, len(wire)*8, a.airTime(), wire)
}

// RadioRxBegin implements phys.Handler (nothing to do at lock time).
func (a *Agent) RadioRxBegin(tx *phys.Transmission, rxPowerW float64) {}

// RadioRx implements phys.Handler: decode an announcement and record it
// in the tolerance registry. The gain to the announcer is learned from
// the broadcast itself, which is always sent at the maximal power (so
// gain = Pr / Pmax); the reception deadline is inferred from the fixed
// data frame length.
func (a *Agent) RadioRx(tx *phys.Transmission, rxPowerW float64, rxErr bool) {
	if rxErr {
		a.Stats.Corrupted++
		return
	}
	wire, ok := tx.Payload.([]byte)
	if !ok {
		return
	}
	f, err := packet.UnmarshalCtrlFrame(wire)
	if err != nil {
		a.Stats.Malformed++
		return
	}
	a.Stats.Received++
	if a.registry == nil {
		return
	}
	gain := rxPowerW / power.MaxW
	until := a.sched.Now().Add(dataAirTime)
	a.registry.Note(f.Node, f.ToleranceW, gain, until)
}

// RadioCarrierBusy implements phys.Handler.
func (a *Agent) RadioCarrierBusy() {}

// RadioCarrierIdle implements phys.Handler.
func (a *Agent) RadioCarrierIdle() {}

// RadioTxDone implements phys.Handler.
func (a *Agent) RadioTxDone(tx *phys.Transmission) {}

var _ phys.Handler = (*Agent)(nil)
