// Package mobility provides node movement models: the random waypoint
// model used by the paper's evaluation (50 nodes, 1000x1000 m field,
// 3 m/s, 3 s pause) and static placements for the controlled topology
// experiments (Figures 1, 4 and 6).
//
// Positions are computed analytically from the current leg rather than
// by periodic position-update events, so mobility adds no load to the
// event scheduler. Models must be queried with non-decreasing times
// (which the simulation clock guarantees).
package mobility

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Model yields a node's position at a simulation instant.
type Model interface {
	// Pos returns the position at time at. Calls must use
	// non-decreasing times.
	Pos(at sim.Time) geom.Point
}

// Stationary is an optional Model capability: models that can bound
// their own motion report an instant through which their position is
// guaranteed not to change. The physical layer's link cache uses it (via
// Epochs) to keep cached link tables valid across pauses and static
// topologies. Like Pos, calls must use non-decreasing times.
type Stationary interface {
	// StationaryUntil returns the latest instant u >= at such that
	// Pos(t) == Pos(at) for all t in [at, u]. A model that is moving at
	// `at` returns `at` itself.
	StationaryUntil(at sim.Time) sim.Time
}

// Static is a fixed position.
type Static geom.Point

// Pos implements Model.
func (s Static) Pos(sim.Time) geom.Point { return geom.Point(s) }

// StationaryUntil implements Stationary: a static node never moves.
func (s Static) StationaryUntil(sim.Time) sim.Time { return sim.MaxTime }

// Waypoint is the random waypoint model: travel to a uniformly chosen
// destination at a uniformly chosen speed, pause, repeat.
type Waypoint struct {
	field    geom.Rect
	minSpeed float64
	maxSpeed float64
	pause    sim.Duration
	rng      *rand.Rand

	// Current leg.
	from, to  geom.Point
	legStart  sim.Time
	legTravel sim.Duration
}

// NewWaypoint creates a random waypoint model starting at a uniform
// random point of field. Speeds are drawn uniformly from
// [minSpeed, maxSpeed] m/s (the paper fixes both to 3); pause is the
// dwell at each destination (3 s in the paper).
func NewWaypoint(field geom.Rect, minSpeed, maxSpeed float64, pause sim.Duration, rng *rand.Rand) *Waypoint {
	if minSpeed <= 0 || maxSpeed < minSpeed {
		panic("mobility: invalid speed range")
	}
	w := &Waypoint{field: field, minSpeed: minSpeed, maxSpeed: maxSpeed, pause: pause, rng: rng}
	w.from = w.randPoint()
	w.newLeg(0)
	return w
}

func (w *Waypoint) randPoint() geom.Point {
	return geom.Point{
		X: w.field.Min.X + w.rng.Float64()*w.field.Width(),
		Y: w.field.Min.Y + w.rng.Float64()*w.field.Height(),
	}
}

// newLeg starts a fresh leg from w.from at time start.
func (w *Waypoint) newLeg(start sim.Time) {
	w.legStart = start
	w.to = w.randPoint()
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	w.legTravel = sim.DurationOf(w.from.Dist(w.to) / speed)
}

// Pos implements Model.
func (w *Waypoint) Pos(at sim.Time) geom.Point {
	for {
		arrive := w.legStart.Add(w.legTravel)
		if at < arrive {
			frac := float64(at.Sub(w.legStart)) / float64(w.legTravel)
			return w.from.Lerp(w.to, frac)
		}
		if at < arrive.Add(w.pause) {
			return w.to
		}
		// Leg and pause both over: advance to the next leg.
		w.from = w.to
		w.newLeg(arrive.Add(w.pause))
	}
}

// StationaryUntil implements Stationary: while pausing at a waypoint the
// position is pinned until the pause ends; mid-leg the node is moving
// now. Calling it advances the leg state, so times must be
// non-decreasing (as for Pos).
func (w *Waypoint) StationaryUntil(at sim.Time) sim.Time {
	w.Pos(at) // advance legs so the current leg covers at
	arrive := w.legStart.Add(w.legTravel)
	if at < arrive {
		return at // in flight
	}
	// Pausing at w.to. The position is still w.to at the exact instant
	// the pause ends (the next leg starts there), so the bound is
	// inclusive of arrive+pause.
	return arrive.Add(w.pause)
}

// Epochs derives a position epoch from a set of mobility models: the
// epoch value changes whenever any tracked model's position may have
// changed since the previous query. Channels consume it through
// phys.Channel.SetPositionEpoch to decide when cached link tables are
// still valid. All-static node sets yield a constant epoch (tables built
// once); mobile sets advance the epoch only across instants where some
// node was actually in flight, so tables survive pause intervals.
//
// Epochs must be queried with non-decreasing simulation times, which the
// single-threaded simulation clock guarantees.
type Epochs struct {
	now    func() sim.Time
	models []Model

	init   bool
	lastAt sim.Time
	until  sim.Time // all models stationary through this instant
	epoch  uint64
}

// NewEpochs returns an epoch counter over models, reading the clock from
// now (typically Scheduler.Now).
func NewEpochs(now func() sim.Time, models ...Model) *Epochs {
	if now == nil {
		panic("mobility: nil clock for Epochs")
	}
	return &Epochs{now: now, models: models}
}

// Track adds a model to the tracked set. Adding a model conservatively
// invalidates the current epoch.
func (e *Epochs) Track(m Model) {
	e.models = append(e.models, m)
	e.init = false
}

// Epoch returns the current position epoch.
func (e *Epochs) Epoch() uint64 {
	at := e.now()
	if e.init && (at == e.lastAt || at <= e.until) {
		e.lastAt = at
		return e.epoch
	}
	// Some model may have moved (or first query): open a new epoch and
	// recompute how long the whole set stays put.
	e.epoch++
	e.init = true
	e.lastAt = at
	e.until = sim.MaxTime
	for _, m := range e.models {
		s, ok := m.(Stationary)
		if !ok {
			e.until = at // unknown motion: revalidate every instant
			return e.epoch
		}
		if u := s.StationaryUntil(at); u < e.until {
			e.until = u
			if u <= at {
				// A model in flight pins the bound at `at` itself — no
				// later model can report less (StationaryUntil >= at),
				// so stop scanning. With mostly-moving populations this
				// makes the per-instant epoch reopen O(1) instead of
				// O(nodes); models skipped here advance their leg state
				// lazily on their next Pos query.
				break
			}
		}
	}
	return e.epoch
}

// Line places n static nodes on a horizontal line with the given
// spacing, starting at origin — the layout of the paper's Figure 1
// (A, B, C, D in a row).
func Line(origin geom.Point, spacing float64, n int) []Model {
	ms := make([]Model, n)
	for i := range ms {
		ms[i] = Static(geom.Point{X: origin.X + float64(i)*spacing, Y: origin.Y})
	}
	return ms
}
