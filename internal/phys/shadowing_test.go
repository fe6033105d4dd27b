package phys

import (
	"math"
	"testing"

	"repro/internal/power"
)

func TestShadowingZeroSigmaIsBase(t *testing.T) {
	base := NewTwoRayGround()
	m := NewShadowing(base, 0, 1)
	for _, d := range []float64{1, 10, 100, 500} {
		got := m.ReceivedPower(0.1, d)
		want := base.ReceivedPower(0.1, d)
		if !relClose(got, want, 1e-12) {
			t.Errorf("d=%v: shadowing %v vs base %v", d, got, want)
		}
	}
}

func TestShadowingPreservesMeanGeometry(t *testing.T) {
	// The mean power keeps the paper's calibration: 250 m decode zone
	// at the maximal power.
	m := NewShadowing(NewTwoRayGround(), 4.0, 1)
	if got := m.MeanReceivedPower(power.MaxW, 250); !relClose(got, RxThreshW, 0.01) {
		t.Errorf("mean power at 250 m = %v, want RxThresh %v", got, RxThreshW)
	}
}

func TestShadowingRandomness(t *testing.T) {
	m := NewShadowing(NewTwoRayGround(), 4.0, 1)
	a := m.ReceivedPower(0.1, 200)
	b := m.ReceivedPower(0.1, 200)
	if a == b {
		t.Fatal("two draws at the same distance were identical with sigma > 0")
	}
}

func TestShadowingSeedDeterminism(t *testing.T) {
	base := NewTwoRayGround()
	m1 := NewShadowing(base, 4.0, 42)
	m2 := NewShadowing(base, 4.0, 42)
	for i := 0; i < 100; i++ {
		if m1.ReceivedPower(0.1, 150) != m2.ReceivedPower(0.1, 150) {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestShadowingStatistics(t *testing.T) {
	// The dB offset from the mean is N(0, sigma): check sample moments.
	m := NewShadowing(NewTwoRayGround(), 4.0, 7)
	mean := m.MeanReceivedPower(0.1, 200)
	const n = 20000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		dB := 10 * math.Log10(m.ReceivedPower(0.1, 200)/mean)
		sum += dB
		sumSq += dB * dB
	}
	mu := sum / n
	sigma := math.Sqrt(sumSq/n - mu*mu)
	if math.Abs(mu) > 0.15 {
		t.Errorf("mean dB offset = %v, want ~0", mu)
	}
	if math.Abs(sigma-4.0) > 0.15 {
		t.Errorf("dB deviation = %v, want ~4", sigma)
	}
}

func TestShadowingValidation(t *testing.T) {
	base := NewTwoRayGround()
	for i, f := range []func(){
		func() { NewShadowing(nil, 4, 1) },
		func() { NewShadowing(base, -1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid shadowing params did not panic", i)
				}
			}()
			f()
		}()
	}
}
