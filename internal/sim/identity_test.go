package sim_test

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

// workload is one entry of the whole-run identity table: the runs to
// execute and an optional tweak applied to every built network on both
// sides of the diff.
type workload struct {
	name string
	runs []runner.Run
	prep func(nw *scenario.Network)
}

// identityWorkloads lists what TestHeapIdentical diffs. The phys
// package's TestReferenceWalkIdentical runs the same list against the
// reference delivery walk; keep the two in step.
func identityWorkloads(t *testing.T) []workload {
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
			LoadsKbps: []float64{300}, ShadowingDB: shadowDB, Reps: 1}
	}
	both := []mac.Scheme{mac.Basic, mac.PCMAC}
	tiny := runner.Campaign{
		Name: "tiny",
		Base: scenario.Options{
			Static:    []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
			FlowPairs: [][2]packet.NodeID{{0, 1}},
			Duration:  5 * sim.Second, Warmup: sim.Duration(sim.Second),
		},
		Schemes: both, LoadsKbps: []float64{40, 80}, Reps: 2,
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
	return []workload{
		{name: "mobile", runs: single(mobile(0))},
		{name: "fading", runs: single(mobile(4))},
		{name: "static-fig1", runs: single(fig1)},
		{name: "clusters", runs: single(clusters)},
		{name: "wide-mobile", runs: single(wide)},
		{name: "grid-uncached", runs: single(mobile(0)), prep: noPromise},
		{name: "campaign-mobile-30", runs: expand(campaign("mobile-30", 30, both, nil))},
		{name: "campaign-mobile-40", runs: expand(campaign("mobile-40", 40, both, nil))},
		{name: "campaign-fading-30", runs: expand(campaign("fading-30", 30, []mac.Scheme{mac.PCMAC}, []float64{4}))},
		{name: "tiny", runs: expand(tiny)},
		{name: "bursty", runs: expand(bursty)},
	}
}

// runJSONL builds, tweaks and runs each run and returns the JSONL the
// campaign runner would emit for them, plus the built networks.
func runJSONL(t *testing.T, w workload, tweak func(nw *scenario.Network)) ([]byte, []*scenario.Network) {
	t.Helper()
	var out bytes.Buffer
	var nets []*scenario.Network
	for _, r := range w.runs {
		nw, err := scenario.Build(r.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if w.prep != nil {
			w.prep(nw)
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

// TestHeapIdentical is the scheduler's whole-run determinism proof:
// every workload runs once on the calendar queue and once with its
// pending set moved onto the reference binary heap right after Build,
// and the two JSONL streams must match byte for byte. The kernel's
// (time, seq) order is total, so any divergence is a queue ordering
// bug, not a tolerance question.
func TestHeapIdentical(t *testing.T) {
	for _, w := range identityWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			calendar, calNets := runJSONL(t, w, nil)
			heap, heapNets := runJSONL(t, w, func(nw *scenario.Network) { sim.UseHeap(nw.Sched) })
			for i := range calNets {
				if sim.OnHeap(calNets[i].Sched) || !sim.OnHeap(heapNets[i].Sched) {
					t.Fatalf("run %d: on heap = %v (calendar side), %v (heap side); want false, true",
						i, sim.OnHeap(calNets[i].Sched), sim.OnHeap(heapNets[i].Sched))
				}
			}
			if !bytes.Equal(calendar, heap) {
				t.Fatalf("calendar JSONL differs from heap:\n--- calendar ---\n%s--- heap ---\n%s", calendar, heap)
			}
		})
	}
}
