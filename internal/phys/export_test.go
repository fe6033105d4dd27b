package phys

// referenceModel hides every capability the channel's fast paths key
// on: it is not a Ranger (no delivery cutoff, so no spatial index) and
// not a *Shadowing (no mean/fade split), just ReceivedPower.
type referenceModel struct{ m Propagation }

func (r referenceModel) ReceivedPower(txPower, dist float64) float64 {
	return r.m.ReceivedPower(txPower, dist)
}

// UseReferenceWalk switches c to the reference delivery path: every
// frame evaluates the full propagation model against every other radio
// in attach order and keeps those at or above the delivery floor. No
// link row is cached and the spatial index is never consulted (the
// motion promise is dropped, and there is no cutoff), and a fading
// model draws its fade inside ReceivedPower, one draw per radio per
// frame. Whole-run identity tests call it right after building a
// network.
func UseReferenceWalk(c *Channel) {
	c.model = referenceModel{c.model}
	c.fade = nil
	c.SetMaxSpeed(-1)
}

// GridAssigned reports whether c's spatial index ever assigned radios
// to cells.
func GridAssigned(c *Channel) bool { return c.grid.valid }

// CachedRows counts the link rows c's radios hold.
func CachedRows(c *Channel) int {
	n := 0
	for _, r := range c.radios {
		n += len(r.rows)
	}
	return n
}

// linearModel hides only the Ranger capability: without a delivery
// cutoff the spatial index never serves a row build.
type linearModel struct{ Propagation }

// UseLinearWalk switches c's link-row builds to the linear all-radios
// walk while keeping everything else on the production path: a pinned
// channel still caches its rows, and a fading model still splits the
// cached mean from the per-delivery fade draw.
func UseLinearWalk(c *Channel) {
	c.model = linearModel{c.model}
}
