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
	// Without a position epoch the channels rebuild the sender's row
	// every frame, through the spatial index.
	noEpoch := func(nw *scenario.Network) {
		nw.DataCh.SetPositionEpoch(nil)
		if nw.CtrlCh != nil {
			nw.CtrlCh.SetPositionEpoch(nil)
		}
	}
	return []workload{
		{name: "mobile", runs: single(mobile(0))},
		{name: "fading", runs: single(mobile(4))},
		{name: "static-fig1", runs: single(fig1)},
		{name: "clusters", runs: single(clusters)},
		{name: "grid-uncached", runs: single(mobile(0)), prep: noEpoch},
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

// TestReferenceWalkIdentical is the whole-run proof that the link-row
// cache and the spatial index are invisible: every workload runs once
// on the production channels and once with every channel switched to
// the reference walk right after Build (the full propagation model
// against every radio, every frame), and the two JSONL streams must
// match byte for byte. A stale row the position epoch missed, a grid
// cell the drift bound failed to cover, or a fade draw taken out of
// order shows up as a diverging delivery.
func TestReferenceWalkIdentical(t *testing.T) {
	channels := func(nw *scenario.Network) []*phys.Channel {
		if nw.CtrlCh != nil {
			return []*phys.Channel{nw.DataCh, nw.CtrlCh}
		}
		return []*phys.Channel{nw.DataCh}
	}
	for _, w := range identityWorkloads(t) {
		t.Run(w.name, func(t *testing.T) {
			prod, prodNets := runJSONL(t, w, nil)
			ref, refNets := runJSONL(t, w, func(nw *scenario.Network) {
				for _, ch := range channels(nw) {
					phys.UseReferenceWalk(ch)
				}
			})
			for i, nw := range prodNets {
				// Production: fading keeps every radio in the row, so
				// the grid steps aside and only the row cache shows.
				data := nw.DataCh
				if nw.Opts.ShadowingSigmaDB == 0 && !phys.GridAssigned(data) {
					t.Fatalf("run %d: production data channel never assigned a grid cell", i)
				}
				if nw.Opts.ShadowingSigmaDB > 0 && phys.CachedRows(data) == 0 {
					t.Fatalf("run %d: production data channel cached no link row", i)
				}
				for _, ch := range channels(refNets[i]) {
					if phys.GridAssigned(ch) || phys.CachedRows(ch) > 0 {
						t.Fatalf("run %d: reference channel assigned grid cells (%v) or cached %d rows",
							i, phys.GridAssigned(ch), phys.CachedRows(ch))
					}
				}
			}
			if !bytes.Equal(prod, ref) {
				t.Fatalf("production JSONL differs from the reference walk:\n--- production ---\n%s--- reference ---\n%s", prod, ref)
			}
		})
	}
}

// gridVsLinear diffs one identity workload between the production
// channels and the same networks with every channel switched to the
// linear walk (UseLinearWalk) right after Build; the link-row cache
// stays on on both sides, so only the spatial index differs.
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
		fading := gridNets[i].Opts.ShadowingSigmaDB > 0
		if got := phys.GridAssigned(gridNets[i].DataCh); got == fading {
			t.Fatalf("run %d: production data channel grid assigned = %v with fading = %v", i, got, fading)
		}
		if phys.GridAssigned(linearNets[i].DataCh) {
			t.Fatalf("run %d: linear-walk data channel assigned grid cells", i)
		}
		if phys.CachedRows(linearNets[i].DataCh) == 0 {
			t.Fatalf("run %d: linear-walk data channel cached no link row", i)
		}
	}
	if !bytes.Equal(gridded, linear) {
		t.Fatalf("grid JSONL differs from the linear walk:\n--- grid ---\n%s--- linear ---\n%s", gridded, linear)
	}
}

// TestSpatialGridSoundMobile is the grid's invalidation-soundness
// proof: a fast-moving waypoint run — cell assignments drifting through
// the Verlet skin and reassigning repeatedly — must be bit-identical to
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
