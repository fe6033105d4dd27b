package scenario

import "testing"

// cachedVsUncached diffs a whole simulation between the production
// channels and the same network with the position epoch dropped right
// after Build: without an epoch the channels cache no link row and
// rebuild the sender's row on every frame (still through the spatial
// index). The link-row cache must be invisible in every metric.
func cachedVsUncached(t *testing.T, name string, o Options) {
	t.Helper()
	cached, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Build(o)
	if err != nil {
		t.Fatal(err)
	}
	nw.DataCh.SetPositionEpoch(nil)
	if nw.CtrlCh != nil {
		nw.CtrlCh.SetPositionEpoch(nil)
	}
	uncached := nw.Run()
	if cached.Events == 0 {
		t.Fatalf("%s: empty run proves nothing", name)
	}
	equalResults(t, name, cached, uncached)
}

// TestLinkCacheSoundMobile is the invalidation-soundness proof the cache
// rests on: a moving-waypoint run must produce bit-identical results
// with and without cached link rows. Any stale row — a position change
// the epoch counter missed — shows up as a diverging delivery and fails
// the comparison.
func TestLinkCacheSoundMobile(t *testing.T) {
	cachedVsUncached(t, "mobile", mobileOpts(0))
}

// TestLinkCacheSoundShadowing adds log-normal fading: cached rows hold
// only the deterministic mean, so the fade generator must be consumed
// in the same order (one draw per attached radio per frame) whether the
// row was reused or rebuilt, or the streams desync and every subsequent
// delivery differs.
func TestLinkCacheSoundShadowing(t *testing.T) {
	cachedVsUncached(t, "shadowing", mobileOpts(4.0))
}
