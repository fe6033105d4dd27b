package scenario

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestEnergyClosedFormTwoNodeFlow cross-checks the accountant against
// independently computed quantities on a single CBR flow between two
// static nodes: per-node state times must tile the full horizon, and
// the TX bucket must equal the radio's own radiated-energy integral
// plus circuit overhead times the metered airtime — two independent
// code paths (phys.Radio.Transmit vs the meter's TxStart/TxEnd
// integration) agreeing to 1e-9.
func TestEnergyClosedFormTwoNodeFlow(t *testing.T) {
	opts := Options{
		Scheme:          mac.Basic,
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 1}},
		OfferedLoadKbps: 64,
		Duration:        5 * sim.Second,
		Warmup:          sim.Second,
		Seed:            1,
	}
	nw, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()

	prof := energy.WaveLAN()
	horizon := opts.Duration.Seconds()
	for i, n := range nw.Nodes {
		a := n.Energy
		if a == nil {
			t.Fatalf("node %d has no accountant", i)
		}
		var total float64
		for s := energy.State(0); s < energy.NumStates; s++ {
			total += a.StateSeconds(s)
		}
		if math.Abs(total-horizon) > 1e-9 {
			t.Fatalf("node %d state times %.12f s, want %.12f s", i, total, horizon)
		}
		radiated := n.MAC.Radio().EnergyTxJ
		wantTx := radiated + prof.TxCircuitW*a.StateSeconds(energy.Tx)
		if gotTx := a.Consumed()[energy.Tx]; math.Abs(gotTx-wantTx) > 1e-9 {
			t.Fatalf("node %d tx bucket %.12f J, want radiated %.12f + circuit = %.12f J", i, gotTx, radiated, wantTx)
		}
	}

	if res.ConsumedEnergyJ <= res.RadiatedEnergyJ {
		t.Fatalf("consumed %.3f J <= radiated %.3f J", res.ConsumedEnergyJ, res.RadiatedEnergyJ)
	}
	// Both peers decode frames addressed to them (data one way, ACKs
	// and routing the other), so both have a non-empty Rx bucket; the
	// idle bucket dominates a 64 kbps trickle.
	for i, n := range nw.Nodes {
		if by := n.Energy.Consumed(); by[energy.Rx] <= 0 {
			t.Fatalf("node %d rx bucket empty: %+v", i, by)
		}
	}
	if res.EnergyIdleJ <= res.EnergyTxJ {
		t.Fatalf("idle %.3f J should dominate tx %.3f J at 64 kbps", res.EnergyIdleJ, res.EnergyTxJ)
	}
	if res.EnergyFairness <= 0 || res.EnergyFairness > 1 {
		t.Fatalf("energy fairness = %g", res.EnergyFairness)
	}
	if len(res.AliveTimeline) != 1 || res.AliveTimeline[0][1] != 2 {
		t.Fatalf("alive timeline = %+v", res.AliveTimeline)
	}
	if res.DeadNodes != 0 || res.TimeToFirstDeathS != 0 {
		t.Fatalf("unexpected deaths: %d first=%g", res.DeadNodes, res.TimeToFirstDeathS)
	}
}

// TestEnergyObserverInvariance requires the accountant to be a pure
// observer: swapping the draw profile (no battery) must leave every
// non-energy metric — including the executed event count — exactly
// unchanged.
func TestEnergyObserverInvariance(t *testing.T) {
	base := Options{
		Scheme:          mac.PCMAC,
		Nodes:           20,
		OfferedLoadKbps: 300,
		Duration:        3 * sim.Second,
		Warmup:          sim.Duration(sim.Second / 2),
		Seed:            7,
	}
	withSensor := base
	withSensor.EnergyProfile = "sensor"

	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withSensor)
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts diverge: %d vs %d — the accountant perturbed the run", a.Events, b.Events)
	}
	if a.ThroughputKbps != b.ThroughputKbps || a.AvgDelayMs != b.AvgDelayMs || a.PDR != b.PDR {
		t.Fatalf("metrics diverge: %+v vs %+v", a, b)
	}
	if a.RadiatedEnergyJ != b.RadiatedEnergyJ || a.CtrlRadiatedEnergyJ != b.CtrlRadiatedEnergyJ {
		t.Fatalf("radiated energy diverges: %g/%g vs %g/%g", a.RadiatedEnergyJ, a.CtrlRadiatedEnergyJ, b.RadiatedEnergyJ, b.CtrlRadiatedEnergyJ)
	}
	if a.ConsumedEnergyJ == b.ConsumedEnergyJ {
		t.Fatalf("consumed energy identical across profiles (%g J) — profile not applied", a.ConsumedEnergyJ)
	}
}

// TestSharedBatteryRetrofit builds a PCMAC terminal on mains, so both
// of its accountants start unmetered, then hands it a battery through
// the data accountant. The control-channel accountant shares that
// battery and must start draining it too: the residual at the horizon
// is the capacity less both radios' consumption, to 1e-9 J.
func TestSharedBatteryRetrofit(t *testing.T) {
	const capacityJ = 100.0
	opts := Options{
		Scheme:          mac.PCMAC,
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 1}},
		OfferedLoadKbps: 64,
		Duration:        5 * sim.Second,
		Warmup:          sim.Second,
		Seed:            1,
	}
	nw, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Nodes[0]
	if n.CtrlEnergy == nil || n.CtrlEnergy.Battery() != n.Energy.Battery() {
		t.Fatal("PCMAC node's control-channel accountant does not share the data radio's battery")
	}
	n.Energy.SetCapacity(capacityJ)
	nw.Run()

	data, ctl := n.Energy.ConsumedJ(), n.CtrlEnergy.ConsumedJ()
	if data <= 0 || ctl <= 0 {
		t.Fatalf("consumed data %g J, control %g J; want both positive", data, ctl)
	}
	want := capacityJ - data - ctl
	if got := n.Energy.ResidualJ(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("residual %.12f J, want %g - %.12f (data) - %.12f (control) = %.12f J", got, capacityJ, data, ctl, want)
	}
	if got := nw.Nodes[1].Energy.ResidualJ(); got != 0 {
		t.Fatalf("mains node's residual %g J, want 0", got)
	}
}

// TestBatteryDeathReroute is the lifetime feedback test: a diamond
// topology where the only two relays between source and sink carry
// batteries. The active relay (transmitting at the maximal level)
// drains first and dies; AODV must detect the broken link and re-route
// through the surviving relay, so deliveries continue after the death.
func TestBatteryDeathReroute(t *testing.T) {
	duration := 22 * sim.Second
	opts := Options{
		Scheme: mac.Basic,
		// 0 —(200m)— 1 —(200m)— 3 with relay 2 at 233 m from both
		// endpoints; 0↔3 is 400 m, beyond the 250 m decode range.
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 200, Y: 120}, {X: 400, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 3}},
		OfferedLoadKbps: 200,
		Duration:        duration,
		Warmup:          sim.Second,
		EnergyProfile:   "sensor",
		TimelineBucket:  sim.Second,
		Seed:            3,
	}
	nw, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Only the relays are battery-powered; endpoints stay on mains so
	// the flow itself never dies.
	nw.Nodes[1].Energy.SetCapacity(1.0)
	nw.Nodes[2].Energy.SetCapacity(1.0)
	res := nw.Run()

	if res.DeadNodes < 1 {
		t.Fatalf("no relay died: residuals %g J and %g J", nw.Nodes[1].Energy.ResidualJ(), nw.Nodes[2].Energy.ResidualJ())
	}
	ttfd := res.TimeToFirstDeathS
	if ttfd <= 2 || ttfd >= duration.Seconds()-4 {
		t.Fatalf("first death at %.1f s leaves no room to observe recovery", ttfd)
	}
	// The endpoints must survive.
	for _, i := range []int{0, 3} {
		if nw.Nodes[i].Energy.Dead() {
			t.Fatalf("endpoint %d died", i)
		}
	}
	// Deliveries must resume after the death: AODV found the other
	// relay. Allow a couple of buckets for retry exhaustion, RERR and
	// route re-discovery.
	recovered := false
	for _, b := range res.Timeline.Points() {
		if b.Start.Seconds() >= ttfd+2 && b.Delivered > 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no deliveries after the relay death at %.1f s: PDR=%.3f dead=%d", ttfd, res.PDR, res.DeadNodes)
	}
	if res.Routing.RERRSent == 0 && res.Routing.RREQSent < 2 {
		t.Fatalf("no sign of re-discovery: %+v", res.Routing)
	}
	if len(res.AliveTimeline) != res.DeadNodes+1 {
		t.Fatalf("alive timeline %+v vs %d deaths", res.AliveTimeline, res.DeadNodes)
	}
}

// TestBatteryFairnessCountsControlReceiver: with batteries, energy
// fairness is Jain's index over each node's residual charge at the
// horizon, and a PCMAC node's residual is its capacity less what both
// of its radios drew. On a two-node flow the index must match that
// closed form, so a residual read before the control receiver's draw
// is settled fails it.
func TestBatteryFairnessCountsControlReceiver(t *testing.T) {
	const capacityJ = 100.0
	nw, err := Build(Options{
		Scheme:          mac.PCMAC,
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 1}},
		OfferedLoadKbps: 64,
		Duration:        20 * sim.Second,
		Warmup:          sim.Second,
		Seed:            1,
		BatteryJ:        capacityJ,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.Run()
	var r [2]float64
	for i, n := range nw.Nodes {
		r[i] = capacityJ - n.Energy.ConsumedJ() - n.CtrlEnergy.ConsumedJ()
		if got := n.Energy.ResidualJ(); math.Abs(got-r[i]) > 1e-9 {
			t.Fatalf("node %d residual %.9f J, want %.9f J", i, got, r[i])
		}
	}
	want := (r[0] + r[1]) * (r[0] + r[1]) / (2 * (r[0]*r[0] + r[1]*r[1]))
	if math.Abs(res.EnergyFairness-want) > 1e-12 {
		t.Fatalf("energy fairness %.15f, want %.15f from residuals %.6f J and %.6f J", res.EnergyFairness, want, r[0], r[1])
	}
}
