package phys_test

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phys"
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

// identityWorkloads lists what TestReferenceWalkIdentical diffs. The
// sim package's TestHeapIdentical runs the same list against the
// reference event queue; keep the two in step.
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

// channels returns a network's data channel and, with PCMAC's control
// channel on, its control channel.
func channels(nw *scenario.Network) []*phys.Channel {
	if nw.CtrlCh != nil {
		return []*phys.Channel{nw.DataCh, nw.CtrlCh}
	}
	return []*phys.Channel{nw.DataCh}
}

// checkCacheContract pins which fast paths the channels of run i took,
// given whether they kept Build's motion promise and whether their
// model still exposes a delivery cutoff (ranged): a channel that is not
// pinned holds no cached row, a pinned data channel holds at least one,
// and an unfaded data channel with a promise and a cutoff serves its
// row builds from the grid. Without either, no channel assigns cells.
func checkCacheContract(t *testing.T, i int, nw *scenario.Network, promise, ranged bool) {
	t.Helper()
	pinned := promise && len(nw.Opts.Static) > 0
	for _, ch := range channels(nw) {
		if !pinned && phys.CachedRows(ch) > 0 {
			t.Fatalf("run %d: channel without a pinned promise cached %d rows", i, phys.CachedRows(ch))
		}
		if (!promise || !ranged) && phys.GridAssigned(ch) {
			t.Fatalf("run %d: channel without a promise or a cutoff assigned grid cells", i)
		}
	}
	if pinned && phys.CachedRows(nw.DataCh) == 0 {
		t.Fatalf("run %d: pinned data channel cached no link row", i)
	}
	if promise && ranged && nw.Opts.ShadowingSigmaDB == 0 && !phys.GridAssigned(nw.DataCh) {
		t.Fatalf("run %d: unfaded data channel under a motion promise never assigned a grid cell", i)
	}
}

// TestReferenceWalkIdentical is the whole-run proof that the link-row
// cache and the spatial index are invisible: every workload runs once
// on the production channels and once with every channel switched to
// the reference walk right after Build (the full propagation model
// against every radio, every frame), and the two JSONL streams must
// match byte for byte. A stale pinned row, a grid cell the drift bound
// failed to cover, or a fade draw taken out of order shows up as a
// diverging delivery.
func TestReferenceWalkIdentical(t *testing.T) {
	for _, w := range identityWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			prod, prodNets := runJSONL(t, w, nil)
			ref, refNets := runJSONL(t, w, func(nw *scenario.Network) {
				for _, ch := range channels(nw) {
					phys.UseReferenceWalk(ch)
				}
			})
			for i, nw := range prodNets {
				// Production keeps Build's promise unless the workload
				// drops it; fading keeps every radio in the row, so the
				// grid steps aside there.
				checkCacheContract(t, i, nw, w.prep == nil, true)
				checkCacheContract(t, i, refNets[i], false, false)
			}
			if !bytes.Equal(prod, ref) {
				t.Fatalf("production JSONL differs from the reference walk:\n--- production ---\n%s--- reference ---\n%s", prod, ref)
			}
		})
	}
}

// gridVsLinear diffs one identity workload between the production
// channels and the same networks with every channel switched to the
// linear walk (UseLinearWalk) right after Build; both sides keep the
// motion promise and its row-cache behaviour, so only the spatial index
// differs.
func gridVsLinear(t *testing.T, name string) {
	t.Helper()
	var w workload
	for _, c := range identityWorkloads(t) {
		if c.name == name {
			w = c
		}
	}
	if w.runs == nil {
		t.Fatalf("no identity workload %q", name)
	}
	gridded, gridNets := runJSONL(t, w, nil)
	linear, linearNets := runJSONL(t, w, func(nw *scenario.Network) {
		phys.UseLinearWalk(nw.DataCh)
		if nw.CtrlCh != nil {
			phys.UseLinearWalk(nw.CtrlCh)
		}
	})
	for i := range gridNets {
		checkCacheContract(t, i, gridNets[i], w.prep == nil, true)
		checkCacheContract(t, i, linearNets[i], w.prep == nil, false)
	}
	if !bytes.Equal(gridded, linear) {
		t.Fatalf("grid JSONL differs from the linear walk:\n--- grid ---\n%s--- linear ---\n%s", gridded, linear)
	}
}

// TestSpatialGridSoundMobile is the grid's invalidation-soundness
// proof: a fast-moving waypoint run — cell assignments drifting through
// the Verlet skin and the grid rebuilt past it — must be bit-identical to
// the linear all-radios walk. A stale cell the drift bound failed to
// cover shows up as a missed delivery and fails the comparison.
func TestSpatialGridSoundMobile(t *testing.T) {
	gridVsLinear(t, "mobile")
}

// TestSpatialGridSoundFading pins the fading fallback: log-normal
// shadowing removes the delivery cutoff (every radio stays in the row,
// one fade draw each), so the grid must step aside without perturbing
// the fade RNG stream.
func TestSpatialGridSoundFading(t *testing.T) {
	gridVsLinear(t, "fading")
}
