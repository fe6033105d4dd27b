package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/aodv"
	"repro/internal/ctrl"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/sim"
)

// Node is one assembled terminal: mobility model, data radio, MAC (any
// of the four protocols), optional power-control channel agent, power
// tables, and AODV router.
type Node struct {
	ID     packet.NodeID
	Mob    mobility.Model
	MAC    *mac.MAC
	Ctrl   *ctrl.Agent // nil unless PCMAC with an enabled control channel
	Router *aodv.Router

	History  *power.History
	Registry *power.Registry

	// Energy is the data radio's energy accountant and CtrlEnergy the
	// control-channel radio's (nil when the terminal has no control
	// agent). Both drain Energy's battery.
	Energy     *energy.Accountant
	CtrlEnergy *energy.Accountant
}

// Die powers the terminal down — the battery-death feedback path. The
// MAC halts (queue dropped, callbacks ignored), the data radio and any
// control-channel radio stop transmitting, receiving and sensing, and
// routes through this node break as neighbours' retries exhaust.
func (n *Node) Die() {
	n.MAC.Halt()
	n.MAC.Radio().SetOff(true)
	if n.Ctrl != nil && n.Ctrl.Radio() != nil {
		n.Ctrl.Radio().SetOff(true)
	}
}

// newNode assembles terminal id from the defaulted options o and
// attaches its radios to the data channel and, for PCMAC, the control
// channel (nil when the scheme is not PCMAC or the control channel is
// disabled).
//
// One energy accountant per radio drains one shared battery of
// o.BatteryJ joules: a PCMAC terminal's always-on control receiver
// costs real joules too, and must shorten the same lifetime. Without a
// battery the accountants are pure observers.
func newNode(id packet.NodeID, o *Options, sched *sim.Scheduler, dataCh, ctrlCh *phys.Channel, mob mobility.Model, eprof energy.Profile, rng *rand.Rand) (*Node, error) {
	n := &Node{ID: id, Mob: mob}
	n.Energy = energy.NewAccountant(sched, energy.Config{Profile: eprof, CapacityJ: o.BatteryJ})
	useCtrl := o.Scheme == mac.PCMAC && ctrlCh != nil
	if useCtrl {
		n.CtrlEnergy = energy.NewAccountant(sched, energy.Config{Profile: eprof, Battery: n.Energy.Battery()})
	}
	pos := func() geom.Point { return mob.Pos(sched.Now()) }

	if o.Scheme != mac.Basic {
		n.History = power.NewHistory(sched.Now, o.HistoryExpiry)
	}
	if useCtrl {
		n.Registry = power.NewRegistry(sched.Now, o.SafetyFactor)
	}

	n.Router = aodv.NewRouter(id, sched, nil)
	n.Router.Jitter = rng

	opts := mac.Options{
		History:           n.History,
		Registry:          n.Registry,
		Rand:              rng,
		RTSThresholdBytes: o.RTSThresholdBytes,
		DisableThreeWay:   o.DisableThreeWay,
		Tracer:            o.Trace,
	}

	if useCtrl {
		agent, err := ctrl.NewAgent(o.CtrlBandwidthBps, id, sched, n.Registry, rng)
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		ctrlRadio := ctrlCh.AttachRadio(int(id), pos, agent)
		// Announcements are broadcast protocol traffic: every clean
		// decode is a useful reception, so the classifier is
		// constant-true and only corrupted frames land in Overhear.
		ctrlRadio.SetAccountant(n.CtrlEnergy, func(any) bool { return true })
		agent.BindRadio(ctrlRadio)
		n.Ctrl = agent
		opts.Announcer = agent
	}

	n.MAC = mac.New(o.Scheme, id, sched, n.Router, opts)
	radio := dataCh.AttachRadio(int(id), pos, n.MAC)
	radio.SetAccountant(n.Energy, func(payload any) bool {
		f, ok := payload.(*packet.Frame)
		return ok && (f.Dst == id || f.Dst == packet.Broadcast)
	})
	n.MAC.BindRadio(radio)
	n.Router.BindLink(n.MAC)
	return n, nil
}
