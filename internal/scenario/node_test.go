package scenario

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
)

// buildNode assembles terminal id at (5, 0) from the scheme's defaulted
// options, with a control channel when withCtrl is set.
func buildNode(t *testing.T, id packet.NodeID, scheme mac.Scheme, withCtrl bool) (*Node, error) {
	t.Helper()
	sched := sim.NewScheduler()
	model := phys.NewTwoRayGround()
	dataCh := phys.NewChannel(sched, model)
	var ctrlCh *phys.Channel
	if withCtrl {
		ctrlCh = phys.NewChannel(sched, model)
	}
	o := Options{Scheme: scheme}.WithDefaults()
	return newNode(new(nodeBlock), id, &o, sched, dataCh, ctrlCh, mobility.Static(geom.Point{X: 5}), energy.WaveLAN(), rand.New(rand.NewSource(1)))
}

func mustBuildNode(t *testing.T, scheme mac.Scheme, withCtrl bool) *Node {
	t.Helper()
	n, err := buildNode(t, 1, scheme, withCtrl)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBasicNodeWiring(t *testing.T) {
	n := mustBuildNode(t, mac.Basic, false)
	if n.MAC == nil || n.Router == nil {
		t.Fatal("missing MAC or router")
	}
	if n.Ctrl != nil || n.Registry != nil {
		t.Fatal("basic node should have no control channel machinery")
	}
	if n.History != nil {
		t.Fatal("basic node needs no power history")
	}
	if n.MAC.Scheme() != mac.Basic {
		t.Fatalf("scheme = %v", n.MAC.Scheme())
	}
	if got := n.MAC.Radio().Pos(); got != (geom.Point{X: 5}) {
		t.Fatalf("radio position = %v", got)
	}
}

func TestScheme2NodeHasHistory(t *testing.T) {
	n := mustBuildNode(t, mac.Scheme2, false)
	if n.History == nil {
		t.Fatal("scheme2 node missing power history")
	}
	if n.Ctrl != nil {
		t.Fatal("scheme2 node should have no control agent")
	}
}

func TestPCMACNodeFullWiring(t *testing.T) {
	n := mustBuildNode(t, mac.PCMAC, true)
	if n.Ctrl == nil || n.Registry == nil || n.History == nil {
		t.Fatal("PCMAC node missing control machinery")
	}
}

func TestPCMACWithoutCtrlChannel(t *testing.T) {
	// The DisableCtrlChannel ablation: PCMAC without a control channel
	// keeps the three-way handshake but loses receiver protection.
	n := mustBuildNode(t, mac.PCMAC, false)
	if n.Ctrl != nil || n.Registry != nil {
		t.Fatal("ablated PCMAC node still has control machinery")
	}
	if n.History == nil {
		t.Fatal("ablated PCMAC node still needs the power history")
	}
}

func TestNodeIDTooLargeForCtrl(t *testing.T) {
	if _, err := buildNode(t, 300, mac.PCMAC, true); err == nil {
		t.Fatal("node ID 300 accepted with a control channel (8-bit field)")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := Options{Scheme: mac.PCMAC}.WithDefaults()
	if c.HistoryExpiry != 3*sim.Second {
		t.Errorf("history expiry = %v, want 3 s (paper)", c.HistoryExpiry)
	}
	if c.SafetyFactor != 0.7 {
		t.Errorf("safety factor = %v, want 0.7 (paper)", c.SafetyFactor)
	}
	if c.CtrlBandwidthBps != 500e3 {
		t.Errorf("control bandwidth = %v, want 500 kbps (paper)", c.CtrlBandwidthBps)
	}
}

// TestBuildAllocsPerNode pins Build's heap allocations per added node,
// the difference between two node counts. A basic 802.11 terminal on
// the paper's mobile layout costs 25: its block (Node, MAC with six
// timers, data radio, accountant) is one slice entry and costs none,
// and the rest are the MAC's six timer callbacks and two tables, the
// router and its table (6), two RNGs (4), the battery and its drain
// list (2), the waypoint model, and four closures (position, payload
// classifier, death and delivery hooks). Splitting the block again
// raises the count.
func TestBuildAllocsPerNode(t *testing.T) {
	const want = 25
	allocs := func(nodes int) float64 {
		o := Options{Scheme: mac.Basic, Nodes: nodes, Duration: 20 * sim.Second, Seed: 1}
		return testing.AllocsPerRun(3, func() {
			if _, err := Build(o); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := math.Round((allocs(200) - allocs(100)) / 100); got != want {
		t.Fatalf("Build allocates %v objects per added node, want %d", got, want)
	}
}
