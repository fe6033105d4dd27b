package scenario

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// twoNodeOpts is a minimal static scenario: one pair 150 m apart.
func twoNodeOpts(s mac.Scheme) Options {
	return Options{
		Scheme:          s,
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 1}},
		OfferedLoadKbps: 80,
		Duration:        20 * sim.Second,
		Warmup:          2 * sim.Second,
		Seed:            1,
	}
}

func TestTwoNodeDelivery(t *testing.T) {
	for _, s := range mac.Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			res, err := Run(twoNodeOpts(s))
			if err != nil {
				t.Fatal(err)
			}
			if res.PDR < 0.95 {
				t.Fatalf("PDR = %.3f, want >= 0.95 (delivered %d, mac stats %+v, routing %+v)",
					res.PDR, res.MAC.Delivered, res.MAC, res.Routing)
			}
			if res.ThroughputKbps < 70 {
				t.Fatalf("throughput = %.1f kbps, want ~80", res.ThroughputKbps)
			}
			if res.AvgDelayMs <= 0 || res.AvgDelayMs > 100 {
				t.Fatalf("delay = %.2f ms, want (0,100]", res.AvgDelayMs)
			}
		})
	}
}

// TestRTSThresholdReachesMAC: Options.RTSThresholdBytes switches the
// MAC to basic access. Above the frame size no unicast sends an RTS;
// at zero, every one does.
func TestRTSThresholdReachesMAC(t *testing.T) {
	for _, c := range []struct {
		thr     int
		wantRTS bool
	}{{4096, false}, {0, true}} {
		o := twoNodeOpts(mac.Basic)
		o.RTSThresholdBytes = c.thr
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.MAC.TxData == 0 || (res.MAC.TxRTS > 0) != c.wantRTS {
			t.Errorf("threshold %d B: %d RTS, %d DATA; want DATA, and RTS %v", c.thr, res.MAC.TxRTS, res.MAC.TxData, c.wantRTS)
		}
	}
}

func TestMultiHopChain(t *testing.T) {
	// 0 -> 3 over a 3-hop chain (200 m spacing, decode range 250 m).
	opts := Options{
		Scheme: mac.PCMAC,
		Static: []geom.Point{
			{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0},
		},
		FlowPairs:       [][2]packet.NodeID{{0, 3}},
		OfferedLoadKbps: 40,
		Duration:        20 * sim.Second,
		Warmup:          2 * sim.Second,
		Seed:            2,
	}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.PDR < 0.9 {
		t.Fatalf("3-hop PDR = %.3f, want >= 0.9 (routing %+v, mac %+v)", res.PDR, res.Routing, res.MAC)
	}
	if res.Routing.Forwarded == 0 {
		t.Fatal("no packets were forwarded on a multi-hop chain")
	}
}

func TestDeterminism(t *testing.T) {
	o := twoNodeOpts(mac.PCMAC)
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputKbps != b.ThroughputKbps || a.AvgDelayMs != b.AvgDelayMs || a.Events != b.Events {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
