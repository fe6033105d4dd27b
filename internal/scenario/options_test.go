package scenario

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func TestDefaultsMatchPaper(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Nodes != 50 {
		t.Errorf("Nodes = %d, want 50", o.Nodes)
	}
	if o.FieldW != 1000 || o.FieldH != 1000 {
		t.Errorf("field = %vx%v, want 1000x1000", o.FieldW, o.FieldH)
	}
	if o.SpeedMin != 3 || o.SpeedMax != 3 {
		t.Errorf("speed = [%v,%v], want 3 m/s", o.SpeedMin, o.SpeedMax)
	}
	if o.Pause != 3*sim.Second {
		t.Errorf("pause = %v, want 3 s", o.Pause)
	}
	if o.Flows != 10 {
		t.Errorf("flows = %d, want 10", o.Flows)
	}
	if o.PacketBytes != 512 {
		t.Errorf("packet = %d B, want 512", o.PacketBytes)
	}
	if o.Duration != 400*sim.Second {
		t.Errorf("duration = %v, want 400 s", o.Duration)
	}
	if o.SafetyFactor != 0.7 || o.HistoryExpiry != 3*sim.Second || o.CtrlBandwidthBps != 500e3 {
		t.Errorf("PCMAC knobs = %v/%v/%v", o.SafetyFactor, o.HistoryExpiry, o.CtrlBandwidthBps)
	}
}

func TestStaticOverridesNodeCount(t *testing.T) {
	o := Options{Nodes: 50, Static: []geom.Point{{}, {X: 1}, {X: 2}}}.WithDefaults()
	if o.Nodes != 3 {
		t.Errorf("Nodes = %d, want len(Static)", o.Nodes)
	}
}

func TestBuildNetworkShape(t *testing.T) {
	nw, err := Build(Options{
		Scheme: mac.PCMAC,
		Nodes:  10,
		Flows:  3,
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes) != 10 {
		t.Fatalf("nodes = %d", len(nw.Nodes))
	}
	if len(nw.Sources) != 3 {
		t.Fatalf("sources = %d", len(nw.Sources))
	}
	if nw.CtrlCh == nil {
		t.Fatal("PCMAC network missing control channel")
	}
	if len(nw.CtrlCh.Radios()) != 10 {
		t.Fatalf("control radios = %d", len(nw.CtrlCh.Radios()))
	}
	for i, n := range nw.Nodes {
		if n.ID != packet.NodeID(i) {
			t.Fatalf("node %d has ID %v", i, n.ID)
		}
		if n.Ctrl == nil {
			t.Fatalf("node %d missing control agent", i)
		}
	}
}

func TestBuildAblatedNetwork(t *testing.T) {
	nw, err := Build(Options{
		Scheme:             mac.PCMAC,
		Nodes:              4,
		Flows:              1,
		DisableCtrlChannel: true,
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nw.CtrlCh != nil {
		t.Fatal("ablated network still built a control channel")
	}
	for _, n := range nw.Nodes {
		if n.Ctrl != nil {
			t.Fatal("ablated node still has a control agent")
		}
	}
}

func TestBasicNetworkHasNoCtrlChannel(t *testing.T) {
	nw, err := Build(Options{Scheme: mac.Basic, Nodes: 4, Flows: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nw.CtrlCh != nil {
		t.Fatal("basic network built a control channel")
	}
}

func TestRadiatedPerDeliveredKB(t *testing.T) {
	res, err := Run(twoNodeOpts(mac.Basic))
	if err != nil {
		t.Fatal(err)
	}
	if res.RadiatedPerDeliveredKB() <= 0 {
		t.Fatalf("energy per KB = %v", res.RadiatedPerDeliveredKB())
	}
	var empty Result
	if empty.RadiatedPerDeliveredKB() != 0 {
		t.Fatal("empty result energy per KB should be 0")
	}
}

func TestFlowRateSpread(t *testing.T) {
	nw, err := Build(Options{
		Scheme:            mac.Basic,
		Static:            []geom.Point{{}, {X: 100}, {X: 200}, {X: 300}},
		FlowPairs:         [][2]packet.NodeID{{0, 1}, {2, 3}},
		OfferedLoadKbps:   100,
		FlowRateSpreadPct: 10,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := func(s *traffic.Source) float64 { return float64(s.Bytes*8) / s.Interval.Seconds() }
	r0, r1 := rate(nw.Sources[0]), rate(nw.Sources[1])
	if r0 == r1 {
		t.Fatal("rate spread did not differentiate flows")
	}
	// Total stays at the offered load.
	if tot := r0 + r1; tot < 99e3 || tot > 101e3 {
		t.Fatalf("total rate = %v, want ~100 kbps", tot)
	}
}

func TestFigureOptionConstructors(t *testing.T) {
	for name, o := range map[string]Options{
		"fig1": Fig1Options(mac.PCMAC),
		"fig4": Fig4Options(mac.Scheme2),
		"fig6": Fig6Options(mac.Scheme1),
	} {
		if len(o.Static) != 4 || len(o.FlowPairs) != 2 {
			t.Errorf("%s: static=%d flows=%d", name, len(o.Static), len(o.FlowPairs))
		}
	}
	// The paper's Figure 8 setup (Section IV) is the defaulted Options.
	f8 := Options{Scheme: mac.Basic}.WithDefaults()
	if f8.Nodes != 50 || f8.Duration != 400*sim.Second {
		t.Errorf("fig8 defaults: %+v", f8)
	}
}
