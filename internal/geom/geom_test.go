package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{0, 0}, Point{250, 0}, 250},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almost(got, c.want) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); !almost(got, c.want*c.want) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPropertyDistSymmetricNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Keep magnitudes sane to avoid overflow-to-Inf noise.
		clip := func(v float64) float64 { return math.Mod(v, 1e6) }
		p := Point{clip(ax), clip(ay)}
		q := Point{clip(bx), clip(by)}
		d1, d2 := p.Dist(q), q.Dist(p)
		return d1 >= 0 && almost(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clip := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clip(ax), clip(ay)}
		b := Point{clip(bx), clip(by)}
		c := Point{clip(cx), clip(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp 1 = %v", got)
	}
	mid := p.Lerp(q, 0.5)
	if !almost(mid.X, 5) || !almost(mid.Y, 10) {
		t.Errorf("Lerp 0.5 = %v", mid)
	}
}

func TestRect(t *testing.T) {
	r := NewField(1000, 1000)
	if !almost(r.Width(), 1000) || !almost(r.Height(), 1000) {
		t.Fatalf("field dims = %v x %v", r.Width(), r.Height())
	}
	in := Point{500, 500}
	if !in.In(r) {
		t.Error("centre not In field")
	}
	edge := Point{0, 1000}
	if !edge.In(r) {
		t.Error("edge not In field (edges inclusive)")
	}
	out := Point{-1, 500}
	if out.In(r) {
		t.Error("outside point reported In")
	}
	cl := r.Clamp(Point{-50, 2000})
	if cl.X != 0 || cl.Y != 1000 {
		t.Errorf("Clamp = %v, want (0,1000)", cl)
	}
	if got := r.Clamp(in); got != in {
		t.Errorf("Clamp of interior point moved it: %v", got)
	}
}

func TestPropertyClampInside(t *testing.T) {
	r := NewField(1000, 500)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return r.Clamp(Point{x, y}).In(r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRectDist2(t *testing.T) {
	r := Rect{Min: Point{10, 20}, Max: Point{30, 40}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{15, 25}, 0},  // inside
		{Point{10, 20}, 0},  // corner, inclusive
		{Point{0, 30}, 100}, // left of the rect
		{Point{35, 30}, 25}, // right of the rect
		{Point{20, 44}, 16}, // above
		{Point{6, 17}, 25},  // corner: 3-4-5 triangle
		{Point{33, 44}, 25}, // opposite corner
	}
	for _, c := range cases {
		if got := r.Dist2(c.p); got != c.want {
			t.Errorf("Dist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1.25, 3.5}).String(); s != "(1.2,3.5)" && s != "(1.3,3.5)" {
		t.Errorf("Point.String = %q", s)
	}
}
