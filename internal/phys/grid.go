package phys

import (
	"iter"
	"math"

	"repro/internal/geom"
	"repro/internal/sim"
)

// cellGrid is the channel's spatial index: a uniform grid of square
// cells mapping cell -> attached radio indices, so link-row builds
// enumerate only the cells overlapping a transmission's delivery-cutoff
// disk instead of walking every radio on the channel — O(neighbors)
// instead of O(N) per (transmitter, power level) rebuild.
//
// Determinism: the grid never decides *which* radios receive a frame.
// It yields a candidate superset of the cutoff disk, in cell order; the
// caller applies the exact squared-distance and delivery-floor filters
// of the linear walk, so the link row holds the same receivers with
// bit-identical powers and delays. Row order does not matter: the
// scheduler orders a frame's deliveries by delay and receiver attach
// index (sim.Span.O), so event order, RNG streams and JSONL output are
// byte-identical to the full walk. TestGridCandidatesProperty and the
// whole-run TestReferenceWalkIdentical check this against the reference
// walk (UseReferenceWalk, test builds only).
//
// Staleness: cells hold radios by their position at assignment time,
// and the channel's motion promise (Channel.SetMaxSpeed) bounds how
// stale that can get. Pinned radios (0) never leave their cell, so the
// grid is built once. Under a bound a radio assigned at builtAt has
// moved at most maxSpeed*(now-builtAt) metres since, so enumerating the
// disk inflated by that drift still covers every radio currently in
// range (the Verlet-list "skin" technique). Once the drift bound
// exceeds the skin the grid is rebuilt from scratch; at waypoint speeds
// that happens every few tens of simulated seconds, so the O(N)
// rebuild amortises over thousands of frames. Without a promise the
// channel never consults the grid.
type cellGrid struct {
	maxCutoff float64 // largest delivery cutoff seen, sizes the cells
	cell      float64 // cell edge length in metres
	inv       float64 // 1 / cell
	skin      float64 // drift tolerance before the grid is rebuilt

	// cells maps packed cell coordinates to the attach indices of the
	// radios assigned there.
	cells map[uint64][]int32

	builtAt   sim.Time // instant of the last build
	attachGen uint64
	valid     bool
}

// gridCellFrac sets the cell edge as a fraction of the largest delivery
// cutoff. Halving the cells quadruples the cell count a max-range query
// touches (still a few dozen map probes) but tightens enumeration for
// the short-range dials a power-controlled MAC sends most data at —
// a 1 mW frame scans a 3x3 block of small cells instead of whole
// max-range cells holding 4x the radios.
const gridCellFrac = 0.5

// gridSkinFrac sets the drift tolerance as a fraction of the cell edge.
// Larger values rebuild less often but enumerate a wider disk; 1/4 of
// a cell keeps the candidate overhead small while a 3 m/s waypoint
// network rebuilds only every skin/3 ≈ 23 simulated seconds.
const gridSkinFrac = 0.25

// packCell packs signed 32-bit cell coordinates into one map key.
func packCell(ix, iy int32) uint64 {
	return uint64(uint32(ix))<<32 | uint64(uint32(iy))
}

// cellOf returns the packed cell key for a position.
func (g *cellGrid) cellOf(p geom.Point) uint64 {
	return packCell(int32(math.Floor(p.X*g.inv)), int32(math.Floor(p.Y*g.inv)))
}

// SetMaxSpeed promises that no attached radio's position changes faster
// than mps metres per second of simulated time. It is the channel's
// only input about motion, and it decides both the link-row cache and
// the spatial index:
//   - 0 (pinned): each radio caches one link row per power level, kept
//     until a radio attaches; the grid is built once.
//   - > 0 (bounded motion): every frame builds its row afresh through
//     the grid, which is rebuilt once the drift bound exceeds its skin.
//   - < 0 (no promise, the NewChannel default): every frame walks all
//     radios; neither rows nor the grid are used.
//
// Scenarios pass their waypoint SpeedMax, or 0 for pinned topologies.
func (c *Channel) SetMaxSpeed(mps float64) { c.maxSpeed = mps }

// gridUsable reports whether the spatial index may serve candidate
// enumeration: it needs a motion promise, a finite delivery cutoff (a
// Ranger model, cutoff > 0) and no fading — a per-delivery fade draw
// keeps every radio in the row, so there is nothing to prune (and
// pruning would desync the fade RNG stream).
func (c *Channel) gridUsable(cutoff float64) bool {
	return c.maxSpeed >= 0 && c.fade == nil && cutoff > 0
}

// candidates yields every radio whose current position can lie within
// cutoff metres of src: the radios of the grid cells overlapping the
// cutoff disk when the spatial index is usable, else every radio in
// attach order. Callers must apply the exact cutoff/floor filters; the
// result is a superset of the cutoff disk.
func (c *Channel) candidates(src geom.Point, cutoff float64) iter.Seq[*Radio] {
	return func(yield func(*Radio) bool) {
		if c.gridUsable(cutoff) {
			c.gridCandidates(src, cutoff, yield)
			return
		}
		for _, o := range c.radios {
			if !yield(o) {
				return
			}
		}
	}
}

// gridCandidates yields, cell by cell, the radios of every grid cell
// that can hold a radio now within cutoff metres of src.
func (c *Channel) gridCandidates(src geom.Point, cutoff float64, yield func(*Radio) bool) {
	drift := c.ensureGrid(cutoff)
	g := &c.grid
	r := cutoff + drift
	r2 := r * r
	ix0 := int32(math.Floor((src.X - r) * g.inv))
	ix1 := int32(math.Floor((src.X + r) * g.inv))
	iy0 := int32(math.Floor((src.Y - r) * g.inv))
	iy1 := int32(math.Floor((src.Y + r) * g.inv))
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			radios, ok := g.cells[packCell(ix, iy)]
			if !ok {
				continue
			}
			// Corner cells may lie entirely outside the disk; one
			// point-to-rect distance test drops them wholesale.
			cellRect := geom.Rect{
				Min: geom.Point{X: float64(ix) * g.cell, Y: float64(iy) * g.cell},
				Max: geom.Point{X: float64(ix+1) * g.cell, Y: float64(iy+1) * g.cell},
			}
			if cellRect.Dist2(src) > r2 {
				continue
			}
			for _, j := range radios {
				if !yield(c.radios[j]) {
					return
				}
			}
		}
	}
}

// ensureGrid brings the index up to date for a query needing the given
// cutoff and returns the residual drift bound — how far any radio may
// have strayed from its assigned cell — to inflate the enumeration
// disk by.
func (c *Channel) ensureGrid(cutoff float64) float64 {
	g := &c.grid
	now := c.sched.Now()
	drift := c.maxSpeed * now.Sub(g.builtAt).Seconds()
	if !g.valid || g.attachGen != c.attachGen || cutoff > g.maxCutoff || drift > g.skin {
		c.rebuildGrid(cutoff, now)
		return 0
	}
	return drift
}

// rebuildGrid sizes the grid for the largest cutoff seen and assigns
// every radio from scratch: on first use, after a radio attaches, for a
// power level with a larger range than any before, and once bounded
// motion has drifted past the skin.
func (c *Channel) rebuildGrid(cutoff float64, now sim.Time) {
	g := &c.grid
	if cutoff > g.maxCutoff {
		g.maxCutoff = cutoff
		g.cell = cutoff * gridCellFrac
		g.inv = 1 / g.cell
		g.skin = g.cell * gridSkinFrac
	}
	g.cells = make(map[uint64][]int32, len(c.radios)/4+1)
	for i, r := range c.radios {
		k := g.cellOf(r.pos())
		g.cells[k] = append(g.cells[k], int32(i))
	}
	g.builtAt = now
	g.attachGen = c.attachGen
	g.valid = true
}
