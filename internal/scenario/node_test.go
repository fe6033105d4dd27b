package scenario

import (
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
	return newNode(id, &o, sched, dataCh, ctrlCh, mobility.Static(geom.Point{X: 5}), energy.WaveLAN(), rand.New(rand.NewSource(1)))
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
