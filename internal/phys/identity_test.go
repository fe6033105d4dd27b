package phys_test

import (
	"bytes"
	"testing"

	"repro/internal/phys"
	"repro/internal/scenario"
	"repro/internal/scenario/scenariotest"
)

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
	for _, w := range scenariotest.IdentityWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			prod, prodNets := scenariotest.RunJSONL(t, w, nil)
			ref, refNets := scenariotest.RunJSONL(t, w, func(nw *scenario.Network) {
				for _, ch := range channels(nw) {
					phys.UseReferenceWalk(ch)
				}
			})
			for i, nw := range prodNets {
				// Production keeps Build's promise unless the workload
				// drops it; fading keeps every radio in the row, so the
				// grid steps aside there.
				checkCacheContract(t, i, nw, w.Prep == nil, true)
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
	var w scenariotest.Workload
	for _, c := range scenariotest.IdentityWorkloads(t) {
		if c.Name == name {
			w = c
		}
	}
	if w.Runs == nil {
		t.Fatalf("no identity workload %q", name)
	}
	gridded, gridNets := scenariotest.RunJSONL(t, w, nil)
	linear, linearNets := scenariotest.RunJSONL(t, w, func(nw *scenario.Network) {
		phys.UseLinearWalk(nw.DataCh)
		if nw.CtrlCh != nil {
			phys.UseLinearWalk(nw.CtrlCh)
		}
	})
	for i := range gridNets {
		checkCacheContract(t, i, gridNets[i], w.Prep == nil, true)
		checkCacheContract(t, i, linearNets[i], w.Prep == nil, false)
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
