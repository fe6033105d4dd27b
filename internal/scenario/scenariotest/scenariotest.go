// Package scenariotest holds test support shared across packages: the
// whole-run identity table that the scheduler's and the channel's
// byte-identity tests both diff, and the helper that runs it to JSONL.
package scenariotest

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Workload is one entry of the whole-run identity table: the runs to
// execute and an optional tweak applied to every built network on both
// sides of a diff.
type Workload struct {
	Name string
	Runs []runner.Run
	Prep func(nw *scenario.Network)
}

// IdentityWorkloads is the whole-run identity table: sim's
// TestHeapIdentical runs it against the reference event queue and phys'
// TestReferenceWalkIdentical against the reference delivery walk.
func IdentityWorkloads(t testing.TB) []Workload {
	t.Helper()
	// 20 nodes at 20 m/s for 3 s: nodes are in flight for most of the
	// run, so positions, link rows and grid cells churn constantly and
	// every CTS/ACK exchange puts same-instant events in the queue.
	mobile := func(sigmaDB float64) scenario.Options {
		return scenario.Options{
			Nodes: 20, FieldW: 600, FieldH: 600,
			SpeedMin: 20, SpeedMax: 20, Pause: sim.Second / 2,
			Flows: 5, OfferedLoadKbps: 200,
			Duration: 3 * sim.Second, Warmup: sim.Duration(sim.Second / 2),
			Seed: 7, ShadowingSigmaDB: sigmaDB,
		}
	}
	fig1 := scenario.Fig1Options(mac.PCMAC) // static, with the control channel
	fig1.Duration = 2 * sim.Second
	fig1.Warmup = sim.Duration(sim.Second / 2)
	clusters := mobile(0)
	clusters.Topology = scenario.TopologyClusters // pinned, dense cells
	// A field wider than the max-power cutoff, with PCMAC sending at
	// short-range dials: radios cross cutoff disks while the grid's
	// cells are stale, so a grid query that ignores the drift bound
	// misses deliveries.
	wide := mobile(0)
	wide.Nodes, wide.FieldW, wide.FieldH = 30, 1000, 1000
	wide.Scheme = mac.PCMAC

	campaign := func(name string, nodes int, schemes []mac.Scheme, shadowDB []float64) runner.Campaign {
		base := scenario.Options{
			Nodes: nodes, SpeedMin: 20, SpeedMax: 20,
			Duration: 2 * sim.Second, Warmup: sim.Duration(sim.Second / 2),
		}
		return runner.Campaign{Name: name, Base: base, Schemes: schemes,
			Axes: runner.Axes{LoadsKbps: []float64{300}, ShadowingDB: shadowDB, Reps: 1}}
	}
	both := []mac.Scheme{mac.Basic, mac.PCMAC}
	tiny := runner.Campaign{
		Name: "tiny",
		Base: scenario.Options{
			Static:    []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
			FlowPairs: [][2]packet.NodeID{{0, 1}},
			Duration:  5 * sim.Second, Warmup: sim.Duration(sim.Second),
		},
		Schemes: both, Axes: runner.Axes{LoadsKbps: []float64{40, 80}, Reps: 2},
	}
	// The preset run of `campaign -preset bursty -duration 4 -seeds 1
	// -loads 250`.
	bursty, err := runner.Preset("bursty", 4, 1, []float64{250})
	if err != nil {
		t.Fatal(err)
	}

	single := func(o scenario.Options) []runner.Run { return []runner.Run{runner.SingleRun(o)} }
	expand := func(c runner.Campaign) []runner.Run {
		runs, err := c.Runs()
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	// Without a motion promise the channels rebuild the sender's row
	// every frame by walking every radio, with no spatial index.
	noPromise := func(nw *scenario.Network) {
		nw.DataCh.SetMaxSpeed(-1)
		if nw.CtrlCh != nil {
			nw.CtrlCh.SetMaxSpeed(-1)
		}
	}
	return []Workload{
		{Name: "mobile", Runs: single(mobile(0))},
		{Name: "fading", Runs: single(mobile(4))},
		{Name: "static-fig1", Runs: single(fig1)},
		{Name: "clusters", Runs: single(clusters)},
		{Name: "wide-mobile", Runs: single(wide)},
		{Name: "grid-uncached", Runs: single(mobile(0)), Prep: noPromise},
		{Name: "campaign-mobile-30", Runs: expand(campaign("mobile-30", 30, both, nil))},
		{Name: "campaign-mobile-40", Runs: expand(campaign("mobile-40", 40, both, nil))},
		{Name: "campaign-fading-30", Runs: expand(campaign("fading-30", 30, []mac.Scheme{mac.PCMAC}, []float64{4}))},
		{Name: "tiny", Runs: expand(tiny)},
		{Name: "bursty", Runs: expand(bursty)},
	}
}

// RunJSONL builds, tweaks and runs each of w's runs and returns the
// JSONL the campaign runner would emit for them, plus the built
// networks. w.Prep runs before tweak on every network.
func RunJSONL(t testing.TB, w Workload, tweak func(nw *scenario.Network)) ([]byte, []*scenario.Network) {
	t.Helper()
	var out bytes.Buffer
	var nets []*scenario.Network
	for _, r := range w.Runs {
		nw, err := scenario.Build(r.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if w.Prep != nil {
			w.Prep(nw)
		}
		if tweak != nil {
			tweak(nw)
		}
		if err := runner.WriteResult(&out, runner.ResultOf(r, nw.Run())); err != nil {
			t.Fatal(err)
		}
		if nw.Sched.Executed() == 0 {
			t.Fatalf("run %s executed no events; the diff proves nothing", r.Key)
		}
		nets = append(nets, nw)
	}
	return out.Bytes(), nets
}
