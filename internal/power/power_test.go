package power

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestLevelTable(t *testing.T) {
	l := Table()
	for i := 1; i < len(l); i++ {
		if !(l[i] > l[i-1]) {
			t.Fatalf("level %d (%g W) not strictly above level %d (%g W)", i, l[i], i-1, l[i-1])
		}
	}
	if len(l) != 10 {
		t.Fatalf("len = %d, want 10 (paper Section IV)", len(l))
	}
	if l[len(l)-1] != MaxW || MaxW != 0.2818 {
		t.Errorf("top level = %v, MaxW = %v, want 0.2818 W", l[len(l)-1], MaxW)
	}
	if l[0] != 0.001 {
		t.Errorf("bottom level = %v, want 1 mW", l[0])
	}
}

func TestQuantize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.0005, 0.001},  // below min -> min
		{0.001, 0.001},   // exact level
		{0.0011, 0.002},  // rounds up, never down
		{0.016, 0.0366},  // between levels
		{0.2818, 0.2818}, // exact max
		{1.0, 0.2818},    // above max clamps
		{0, 0.001},       // zero -> min
		{-5, 0.001},      // negative -> min
	}
	for _, c := range cases {
		if got := Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPropertyQuantizeSufficient(t *testing.T) {
	f := func(raw float64) bool {
		w := math.Abs(math.Mod(raw, 0.4))
		q := Quantize(w)
		if w <= MaxW && q < w {
			return false // quantized power must always suffice
		}
		// And it is a valid level.
		for _, v := range Table() {
			if v == q {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepUp(t *testing.T) {
	next, ok := StepUp(0.001)
	if !ok || next != 0.002 {
		t.Errorf("StepUp(1mW) = %v,%v", next, ok)
	}
	next, ok = StepUp(0.2818)
	if ok || next != 0.2818 {
		t.Errorf("StepUp(max) = %v,%v, want max,false", next, ok)
	}
	next, ok = StepUp(0.0119) // between levels
	if !ok || next != 0.015 {
		t.Errorf("StepUp(11.9mW) = %v,%v, want 15mW,true", next, ok)
	}
	// Walking up from the bottom visits every level: the paper's
	// "increase by one class until maximal".
	w := 0.0
	steps := 0
	for {
		n, ok := StepUp(w)
		if !ok {
			break
		}
		w = n
		steps++
	}
	if steps != len(levels) {
		t.Errorf("walked %d steps, want %d", steps, len(levels))
	}
}

type fakeClock struct{ now sim.Time }

func (c *fakeClock) fn() func() sim.Time { return func() sim.Time { return c.now } }

func TestHistoryObserveAndNeeded(t *testing.T) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 3*sim.Second)
	// Heard node 7 at 1e-9 W, sent at 0.1 W: gain 1e-8.
	h.Observe(7, 0.1, 1e-9)
	g, ok := h.Gain(7)
	if !ok || g != 1e-8 {
		t.Fatalf("Gain = %v,%v", g, ok)
	}
	need, ok := h.NeededPower(7, 3.652e-10)
	if !ok || math.Abs(need-3.652e-2)/3.652e-2 > 1e-12 {
		t.Fatalf("NeededPower = %v,%v, want ~0.03652", need, ok)
	}
	if _, ok := h.Gain(8); ok {
		t.Error("unknown neighbour returned a gain")
	}
}

func TestHistoryExpiry(t *testing.T) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 3*sim.Second)
	h.Observe(7, 0.1, 1e-9)
	c.now = sim.Time(2 * sim.Second)
	if _, ok := h.Gain(7); !ok {
		t.Fatal("entry expired early")
	}
	c.now = sim.Time(3*sim.Second + 1)
	if _, ok := h.Gain(7); ok {
		t.Fatal("entry survived past expiry")
	}
	if h.Len() != 0 {
		t.Fatal("stale entry not removed on access")
	}
}

func TestHistoryRefreshResetsExpiry(t *testing.T) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 3*sim.Second)
	h.Observe(7, 0.1, 1e-9)
	c.now = sim.Time(2 * sim.Second)
	h.Observe(7, 0.1, 2e-9)
	c.now = sim.Time(4 * sim.Second)
	g, ok := h.Gain(7)
	if !ok || g != 2e-8 {
		t.Fatalf("refreshed entry: %v,%v", g, ok)
	}
}

func TestHistoryIgnoresInvalid(t *testing.T) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 3*sim.Second)
	h.Observe(7, 0, 1e-9)
	h.Observe(7, 0.1, 0)
	h.Observe(7, -1, -1)
	if h.Len() != 0 {
		t.Fatal("invalid observations stored")
	}
}

func TestHistoryNoExpiry(t *testing.T) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 0)
	h.Observe(1, 0.1, 1e-9)
	c.now = sim.Time(1000 * sim.Second)
	if _, ok := h.Gain(1); !ok {
		t.Fatal("expiry-disabled entry vanished")
	}
}

func TestRegistryCheck(t *testing.T) {
	c := &fakeClock{}
	r := NewRegistry(c.fn(), 0.7)
	// Receiver 5, tolerance 1e-10 W, gain from us 1e-9, active 2 ms.
	r.Note(5, 1e-10, 1e-9, sim.Time(2*sim.Millisecond))
	// 0.2818 W * 1e-9 = 2.8e-10 > 0.7e-10: blocked.
	ok, wait := r.Check(0.2818)
	if ok {
		t.Fatal("max power should be blocked")
	}
	if wait != 2*sim.Millisecond {
		t.Fatalf("wait = %v, want 2ms", wait)
	}
	// 0.01 W * 1e-9 = 1e-11 < 7e-11: allowed.
	if ok, _ := r.Check(0.01); !ok {
		t.Fatal("low power should pass")
	}
}

func TestRegistryExpiry(t *testing.T) {
	c := &fakeClock{}
	r := NewRegistry(c.fn(), 0.7)
	r.Note(5, 1e-12, 1e-9, sim.Time(sim.Millisecond))
	c.now = sim.Time(sim.Millisecond)
	if ok, _ := r.Check(0.2818); !ok {
		t.Fatal("expired entry still blocking")
	}
	if r.Active() != 0 {
		t.Fatal("expired entry still counted")
	}
}

func TestRegistryMultipleBlockersWaitsForLast(t *testing.T) {
	c := &fakeClock{}
	r := NewRegistry(c.fn(), 0.7)
	r.Note(5, 1e-12, 1e-9, sim.Time(2*sim.Millisecond))
	r.Note(6, 1e-12, 1e-9, sim.Time(5*sim.Millisecond))
	ok, wait := r.Check(0.2818)
	if ok || wait != 5*sim.Millisecond {
		t.Fatalf("Check = %v,%v; want blocked until 5ms", ok, wait)
	}
}

func TestRegistryDrop(t *testing.T) {
	c := &fakeClock{}
	r := NewRegistry(c.fn(), 0.7)
	r.Note(5, 1e-12, 1e-9, sim.Time(sim.Second))
	r.Drop(5)
	if ok, _ := r.Check(0.2818); !ok {
		t.Fatal("dropped entry still blocking")
	}
}

func TestPropertySafetyFactorMonotone(t *testing.T) {
	// A higher safety factor can only admit more transmissions.
	c := &fakeClock{}
	f := func(tolRaw, gainRaw, pRaw float64) bool {
		tol := 1e-13 + math.Abs(math.Mod(tolRaw, 1e-9))
		gain := 1e-12 + math.Abs(math.Mod(gainRaw, 1e-6))
		p := 1e-3 + math.Abs(math.Mod(pRaw, 0.3))
		lo := NewRegistry(c.fn(), 0.5)
		hi := NewRegistry(c.fn(), 0.9)
		lo.Note(1, tol, gain, sim.Time(sim.Second))
		hi.Note(1, tol, gain, sim.Time(sim.Second))
		okLo, _ := lo.Check(p)
		okHi, _ := hi.Check(p)
		if okLo && !okHi {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantizeIdempotent(t *testing.T) {
	f := func(raw float64) bool {
		w := math.Abs(math.Mod(raw, 0.5))
		q := Quantize(w)
		return Quantize(q) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStepUpStrictlyIncreases(t *testing.T) {
	f := func(raw float64) bool {
		w := math.Abs(math.Mod(raw, 0.3))
		next, ok := StepUp(w)
		if !ok {
			return w >= MaxW || next == MaxW
		}
		return next > w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkHistoryObserve measures the per-frame refresh: a node hears
// a rotating neighbourhood of 48 terminals (about a grid node's at
// n=2000) and looks up one of them for every frame. It must stay
// allocation-free once the table holds the neighbourhood.
func BenchmarkHistoryObserve(b *testing.B) {
	c := &fakeClock{}
	h := NewHistory(c.fn(), 3*sim.Second)
	const neighbours = 48
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.now += sim.Time(sim.Millisecond)
		id := packet.NodeID(i*7) % neighbours
		h.Observe(id, 0.2818, 1e-9)
		h.NeededPower(id+1, 3.652e-10)
	}
}
