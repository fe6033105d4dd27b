// Package node assembles one complete terminal: mobility model, data
// radio, MAC (any of the four protocols), optional power-control channel
// agent, power tables, and AODV router.
package node

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
	"repro/internal/trace"
)

// Config parameterizes a terminal.
type Config struct {
	// Scheme selects the MAC protocol.
	Scheme mac.Scheme
	// MAC carries the 802.11 constants.
	MAC mac.Config
	// AODV carries the routing constants.
	AODV aodv.Config
	// Levels is the transmit power dial.
	Levels power.Levels
	// HistoryExpiry is the power-history entry lifetime (3 s in the
	// paper).
	HistoryExpiry sim.Duration
	// SafetyFactor is PCMAC's tolerance headroom coefficient (0.7).
	SafetyFactor float64
	// CtrlBitRateBps is the power-control channel bandwidth; <= 0
	// disables the control channel (PCMAC then runs its three-way
	// handshake without receiver protection — an ablation).
	CtrlBitRateBps float64
	// DisableThreeWay keeps the four-way handshake under PCMAC (an
	// ablation).
	DisableThreeWay bool
	// Tracer receives MAC protocol events; nil disables tracing.
	Tracer trace.Sink
	// Energy, when non-nil, meters the data radio's full electrical
	// draw (TX at the selected level + circuit overhead, RX, idle,
	// overhearing) into this per-node accountant. The scenario layer
	// creates one per node; nil disables metering entirely.
	Energy *energy.Accountant
	// CtrlEnergy, when non-nil, meters the PCMAC control-channel radio
	// the same way — a second always-on receiver is real consumption,
	// and it should drain the same battery (share it via
	// energy.Config.Battery). Ignored when the node has no control
	// agent.
	CtrlEnergy *energy.Accountant
}

// DefaultConfig returns the paper's per-node parameters.
func DefaultConfig(scheme mac.Scheme) Config {
	return Config{
		Scheme:         scheme,
		MAC:            mac.DefaultConfig(),
		AODV:           aodv.DefaultConfig(),
		Levels:         power.DefaultLevels(),
		HistoryExpiry:  3 * sim.Second,
		SafetyFactor:   0.7,
		CtrlBitRateBps: 500e3,
	}
}

// Node is one assembled terminal.
type Node struct {
	ID     packet.NodeID
	Mob    mobility.Model
	MAC    *mac.MAC
	Ctrl   *ctrl.Agent // nil unless PCMAC with an enabled control channel
	Router *aodv.Router

	History  *power.History
	Registry *power.Registry

	// Energy is the data radio's energy accountant and CtrlEnergy the
	// control-channel radio's (nil when the terminal was built without
	// metering, or has no control agent). Both drain Energy's battery
	// when the scenario shares it.
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

// New assembles a terminal and attaches its radios to the given data
// channel and (for PCMAC) control channel. ctrlCh may be nil when the
// scheme is not PCMAC or the control channel is disabled.
func New(id packet.NodeID, sched *sim.Scheduler, dataCh, ctrlCh *phys.Channel, mob mobility.Model, cfg Config, rng *rand.Rand) (*Node, error) {
	n := &Node{ID: id, Mob: mob}
	pos := func() geom.Point { return mob.Pos(sched.Now()) }

	if cfg.Scheme != mac.Basic {
		n.History = power.NewHistory(sched.Now, cfg.HistoryExpiry)
	}
	useCtrl := cfg.Scheme == mac.PCMAC && ctrlCh != nil && cfg.CtrlBitRateBps > 0
	if useCtrl {
		n.Registry = power.NewRegistry(sched.Now, cfg.SafetyFactor)
	}

	n.Router = aodv.NewRouter(cfg.AODV, id, sched, nil)
	n.Router.Jitter = rng

	opts := mac.Options{
		History:         n.History,
		Registry:        n.Registry,
		Levels:          cfg.Levels,
		Rand:            rng,
		DisableThreeWay: cfg.DisableThreeWay,
		Tracer:          cfg.Tracer,
	}

	if useCtrl {
		dataAir := cfg.MAC.AirTime(packet.DataHeaderBytes+packet.PCMACHeaderExtra+cfg.MAC.MaxPayloadBytes, cfg.MAC.DataRateBps)
		cc := ctrl.DefaultConfig(cfg.Levels.Max(), dataAir)
		cc.BitRateBps = cfg.CtrlBitRateBps
		agent, err := ctrl.NewAgent(cc, id, sched, n.Registry, rng)
		if err != nil {
			return nil, fmt.Errorf("node %v: %w", id, err)
		}
		ctrlRadio := ctrlCh.AttachRadio(int(id), pos, agent)
		if cfg.CtrlEnergy != nil {
			// Announcements are broadcast protocol traffic: every clean
			// decode is a useful reception, so the classifier is
			// constant-true and only corrupted frames land in Overhear.
			ctrlRadio.SetAccountant(cfg.CtrlEnergy, func(any) bool { return true })
			n.CtrlEnergy = cfg.CtrlEnergy
		}
		agent.BindRadio(ctrlRadio)
		n.Ctrl = agent
		opts.Announcer = agent
	}

	n.MAC = mac.New(cfg.MAC, cfg.Scheme, id, sched, n.Router, opts)
	radio := dataCh.AttachRadio(int(id), pos, n.MAC)
	if cfg.Energy != nil {
		radio.SetAccountant(cfg.Energy, func(payload any) bool {
			f, ok := payload.(*packet.Frame)
			return ok && (f.Dst == id || f.Dst == packet.Broadcast)
		})
		n.Energy = cfg.Energy
	}
	n.MAC.BindRadio(radio)
	n.Router.BindLink(n.MAC)
	return n, nil
}
