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

// Static is a fixed position.
type Static geom.Point

// Pos implements Model.
func (s Static) Pos(sim.Time) geom.Point { return geom.Point(s) }

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
