package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestQuantileExactSmallSamples(t *testing.T) {
	q := NewQuantile(0.5)
	if q.Value() != 0 {
		t.Fatalf("empty Value = %g", q.Value())
	}
	q.Add(7)
	if q.Value() != 7 {
		t.Fatalf("one-sample median = %g", q.Value())
	}
	for _, x := range []float64{3, 9, 1} {
		q.Add(x)
	}
	// {1, 3, 7, 9}: nearest-rank median is 3.
	if q.Value() != 3 {
		t.Fatalf("four-sample median = %g, want 3", q.Value())
	}
	if q.N() != 4 {
		t.Fatalf("N = %d", q.N())
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewQuantile(%g) did not panic", p)
				}
			}()
			NewQuantile(p)
		}()
	}
}

// exactQuantile is the nearest-rank quantile of a full sample, the
// reference the P² stream estimate is checked against.
func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestQuantileKnownDistributions streams large samples from known
// distributions and requires the P² estimate to track both the
// analytic quantile and the exact sample quantile.
func TestQuantileKnownDistributions(t *testing.T) {
	const n = 50000
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		draw func() float64
		// analytic quantile values for p = 0.5, 0.95, 0.99
		want map[float64]float64
		tol  float64 // relative tolerance
	}{
		{
			name: "uniform(0,100)",
			draw: func() float64 { return rng.Float64() * 100 },
			want: map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99},
			tol:  0.02,
		},
		{
			name: "exponential(mean 1)",
			draw: func() float64 { return rng.ExpFloat64() },
			want: map[float64]float64{0.5: math.Ln2, 0.95: -math.Log(0.05), 0.99: -math.Log(0.01)},
			tol:  0.05,
		},
	}
	for _, tc := range cases {
		ests := map[float64]*Quantile{}
		for p := range tc.want {
			q := NewQuantile(p)
			ests[p] = &q
		}
		xs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			x := tc.draw()
			xs = append(xs, x)
			for _, q := range ests {
				q.Add(x)
			}
		}
		for p, want := range tc.want {
			got := ests[p].Value()
			if math.Abs(got-want)/want > tc.tol {
				t.Errorf("%s p%g: estimate %g, analytic %g", tc.name, p*100, got, want)
			}
			exact := exactQuantile(xs, p)
			if math.Abs(got-exact)/exact > tc.tol {
				t.Errorf("%s p%g: estimate %g, exact sample quantile %g", tc.name, p*100, got, exact)
			}
		}
	}
}

// TestQuantileDeterministic: identical streams give identical
// estimates — the property that keeps campaign JSONL byte-stable.
func TestQuantileDeterministic(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(3))
		q := NewQuantile(0.95)
		for i := 0; i < 10000; i++ {
			q.Add(rng.NormFloat64())
		}
		return q.Value()
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("estimates differ: %g vs %g", a, b)
	}
}

// deliver pushes one delivery with the given send time and delay into
// the collector.
func deliver(c *Collector, flow uint32, seq uint32, created sim.Time, delay sim.Duration) {
	np := &packet.NetPacket{FlowID: flow, Seq: seq, Bytes: 512, CreatedAt: created}
	c.PacketSent(np)
	c.PacketDelivered(np, created.Add(delay))
}

func TestCollectorJitter(t *testing.T) {
	c := NewCollector(0)
	// Flow 1: constant 10 ms delay -> zero jitter.
	for i := uint32(1); i <= 5; i++ {
		deliver(c, 1, i, sim.Time(i)*sim.Time(sim.Second), 10*sim.Millisecond)
	}
	// Flow 2: alternating 10/30 ms -> every consecutive difference is
	// 20 ms.
	for i := uint32(1); i <= 6; i++ {
		d := 10 * sim.Millisecond
		if i%2 == 0 {
			d = 30 * sim.Millisecond
		}
		deliver(c, 2, i, sim.Time(i)*sim.Time(sim.Second), d)
	}
	flows := c.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].JitterMs != 0 {
		t.Errorf("constant flow jitter = %g, want 0", flows[0].JitterMs)
	}
	if math.Abs(flows[1].JitterMs-20) > 1e-9 {
		t.Errorf("alternating flow jitter = %g, want 20", flows[1].JitterMs)
	}
	// Aggregate: 4 zero-diffs from flow 1, 5 20ms-diffs from flow 2.
	want := 20.0 * 5 / 9
	if math.Abs(c.JitterMs()-want) > 1e-9 {
		t.Errorf("aggregate jitter = %g, want %g", c.JitterMs(), want)
	}
}

func TestCollectorPercentiles(t *testing.T) {
	c := NewCollector(0)
	// Flow 1: delays 1..100 ms, one per second.
	for i := uint32(1); i <= 100; i++ {
		deliver(c, 1, i, sim.Time(i)*sim.Time(sim.Second), sim.Duration(i)*sim.Millisecond)
	}
	flows := c.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if math.Abs(f.DelayP95Ms-95) > 3 {
		t.Errorf("flow p95 = %g, want ~95", f.DelayP95Ms)
	}
	if math.Abs(c.DelayP50Ms()-50) > 3 {
		t.Errorf("p50 = %g, want ~50", c.DelayP50Ms())
	}
	if math.Abs(c.DelayP99Ms()-99) > 2 {
		t.Errorf("p99 = %g, want ~99", c.DelayP99Ms())
	}
	// The collector-level digest sees the same stream here.
	if math.Abs(c.DelayP95Ms()-f.DelayP95Ms) > 1e-9 {
		t.Errorf("aggregate p95 %g diverges from the single flow's %g", c.DelayP95Ms(), f.DelayP95Ms)
	}
	// Warmup-era and duplicate deliveries stay out of the digests.
	c2 := NewCollector(sim.Time(10 * sim.Second))
	deliver(c2, 1, 1, sim.Time(sim.Second), 500*sim.Millisecond)
	if c2.DelayP99Ms() != 0 {
		t.Errorf("warmup delivery leaked into percentiles: %g", c2.DelayP99Ms())
	}
	np := &packet.NetPacket{FlowID: 1, Seq: 9, Bytes: 512, CreatedAt: sim.Time(20 * sim.Second)}
	c2.PacketSent(np)
	c2.PacketDelivered(np, np.CreatedAt.Add(10*sim.Millisecond))
	c2.PacketDelivered(np, np.CreatedAt.Add(900*sim.Millisecond))
	if got := c2.DelayP99Ms(); got != 10 {
		t.Errorf("duplicate delivery leaked into percentiles: %g", got)
	}
}
