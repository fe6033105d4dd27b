// Package geom provides the small amount of 2-D geometry the wireless
// substrate needs: node positions on the simulation field, distances for
// the propagation model, and linear motion for the mobility models.
package geom

import (
	"fmt"
	"math"
)

// Point is a position on the simulation field, in metres.
type Point struct {
	X, Y float64
}

func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance, avoiding the square root where the
// caller only compares distances.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q; t outside
// [0,1] extrapolates along the same line.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// In reports whether p lies inside the rectangle r (inclusive edges).
func (p Point) In(r Rect) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Rect is an axis-aligned rectangle (the simulation field).
type Rect struct {
	Min, Max Point
}

// NewField returns the rectangle [0,w]×[0,h].
func NewField(w, h float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{w, h}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Dist2 returns the squared distance from p to the nearest point of r
// (zero when p lies inside) — Clamp finds that nearest point. The
// spatial index uses it to discard grid cells that cannot intersect a
// delivery-cutoff disk.
func (r Rect) Dist2(p Point) float64 {
	return p.Dist2(r.Clamp(p))
}
