package scenario

import (
	"testing"

	"repro/internal/mac"
)

// promisedVsNone diffs a whole simulation between the production
// channels, which carry Build's motion promise (SetMaxSpeed), and the
// same network with the promise dropped right after Build: without one
// the channels cache no link row and use no spatial index, rebuilding
// the sender's row on every frame by walking every radio. Whatever the
// promise enables must be invisible in every metric.
func promisedVsNone(t *testing.T, name string, o Options, pinned bool) {
	t.Helper()
	promised, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(promised.Opts.Static) > 0; got != pinned {
		t.Fatalf("%s: pinned placement = %v, want %v", name, got, pinned)
	}
	withPromise := promised.Run()
	nw, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	nw.DataCh.SetMaxSpeed(-1)
	if nw.CtrlCh != nil {
		nw.CtrlCh.SetMaxSpeed(-1)
	}
	without := nw.Run()
	if withPromise.Events == 0 {
		t.Fatalf("%s: empty run proves nothing", name)
	}
	equalResults(t, name, withPromise, without)
}

// TestLinkCacheSoundMobile proves the motion promise sound: a
// fast-moving waypoint run, whose spatial index tolerates drift up to
// the promised speed, must produce bit-identical results to the same
// run without the promise. The field is wider than the max-power
// cutoff and PCMAC sends at short-range dials, so radios cross cutoff
// disks while the grid's cells are stale; a radio that outran the
// drift bound shows up as a missed delivery and fails the comparison.
func TestLinkCacheSoundMobile(t *testing.T) {
	o := mobileOpts(0)
	o.Nodes, o.FieldW, o.FieldH = 30, 1000, 1000
	o.Scheme = mac.PCMAC
	promisedVsNone(t, "mobile", o, false)
}

// TestLinkCacheSoundShadowing adds log-normal fading to a pinned
// topology, where link rows are cached: cached rows hold only the
// deterministic mean, so the fade generator must be consumed in the
// same order (one draw per attached radio per frame) whether the row
// was reused or rebuilt, or the streams desync and every subsequent
// delivery differs.
func TestLinkCacheSoundShadowing(t *testing.T) {
	o := mobileOpts(4.0)
	o.Nodes, o.Flows = 30, 6
	o.Topology = TopologyClusters
	promisedVsNone(t, "shadowing", o, true)
}
