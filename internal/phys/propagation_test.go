package phys

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/power"
)

func relClose(got, want, tol float64) bool {
	if want == 0 {
		return math.Abs(got) < tol
	}
	return math.Abs(got-want)/math.Abs(want) < tol
}

func TestZoneRadii(t *testing.T) {
	// Paper Section II / Figure 3: with the normal (maximal) power the
	// decoding range is 250 m and the carrier-sensing range is 550 m.
	m := NewTwoRayGround()
	decode := m.RangeForTxPower(power.MaxW, RxThreshW)
	sense := m.RangeForTxPower(power.MaxW, CsThreshW)
	if !relClose(decode, 250, 0.01) {
		t.Errorf("decode range = %.2f m, want 250 m", decode)
	}
	if !relClose(sense, 550, 0.01) {
		t.Errorf("carrier-sense range = %.2f m, want 550 m", sense)
	}
}

func TestPaperPowerLevelTable(t *testing.T) {
	// Paper Section IV: ten power levels and their decode ranges. The
	// paper rounds ("roughly correspond"), so allow 8% — the published
	// pairs all regenerate to within that from the two-ray model.
	m := NewTwoRayGround()
	table := []struct {
		mW     float64
		rangeM float64
		tol    float64
	}{
		// The 1 mW row is rounded much more coarsely in the paper (the
		// model gives 0.86 mW for 40 m); the rest regenerate tightly.
		{1, 40, 0.20}, {2, 60, 0.08}, {3.45, 80, 0.08}, {4.8, 90, 0.08},
		{7.25, 100, 0.08}, {10.6, 110, 0.08}, {15, 120, 0.08},
		{36.6, 150, 0.08}, {75.8, 180, 0.08}, {281.8, 250, 0.08},
	}
	for _, row := range table {
		reach := m.RangeForTxPower(row.mW/1e3, RxThreshW)
		if !relClose(reach, row.rangeM, row.tol) {
			t.Errorf("range at %.2f mW = %.1f m, paper says %.0f m", row.mW, reach, row.rangeM)
		}
	}
}

func TestCrossoverContinuity(t *testing.T) {
	m := NewTwoRayGround()
	d := float64(CrossoverDistM)
	if !relClose(d, 86.14, 0.01) {
		t.Errorf("crossover = %.2f m, want ~86.14 m", d)
	}
	below := m.ReceivedPower(power.MaxW, d*0.999999)
	above := m.ReceivedPower(power.MaxW, d*1.000001)
	if !relClose(below, above, 0.01) {
		t.Errorf("discontinuity at crossover: %.3e vs %.3e", below, above)
	}
}

// TestFreeSpaceInverseSquare checks the two-ray model's Friis regime,
// below the crossover distance: Pt*lambda^2/(4*pi*d)^2, falling with
// the square of distance.
func TestFreeSpaceInverseSquare(t *testing.T) {
	m := NewTwoRayGround()
	p1 := m.ReceivedPower(0.1, 10)
	p2 := m.ReceivedPower(0.1, 20)
	if !relClose(p1/p2, 4, 1e-9) {
		t.Errorf("free space ratio over 2x distance = %v, want 4", p1/p2)
	}
	if want := 0.1 * Wavelength * Wavelength / math.Pow(4*math.Pi*10, 2); !relClose(p1, want, 1e-12) {
		t.Errorf("free space power at 10 m = %v, want %v", p1, want)
	}
	if got := m.ReceivedPower(0.1, 0); got != 0.1 {
		t.Errorf("zero-distance power = %v, want tx power", got)
	}
}

func TestTwoRayInverseFourth(t *testing.T) {
	m := NewTwoRayGround()
	p1 := m.ReceivedPower(0.2818, 200)
	p2 := m.ReceivedPower(0.2818, 400)
	if !relClose(p1/p2, 16, 1e-9) {
		t.Errorf("two-ray ratio over 2x distance = %v, want 16", p1/p2)
	}
}

func TestPropertyMonotoneInDistance(t *testing.T) {
	m := NewTwoRayGround()
	f := func(a, b float64) bool {
		d1 := 1 + math.Abs(math.Mod(a, 2000))
		d2 := 1 + math.Abs(math.Mod(b, 2000))
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return m.ReceivedPower(0.1, d1) >= m.ReceivedPower(0.1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLinearInPower(t *testing.T) {
	m := NewTwoRayGround()
	f := func(p, d float64) bool {
		pw := 1e-3 + math.Abs(math.Mod(p, 1.0))
		dist := 1 + math.Abs(math.Mod(d, 2000))
		return relClose(m.ReceivedPower(2*pw, dist), 2*m.ReceivedPower(pw, dist), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRangePowerRoundTrip(t *testing.T) {
	m := NewTwoRayGround()
	f := func(raw float64) bool {
		// RangeForTxPower inverts ReceivedPower: at the returned range
		// the received power is exactly the threshold.
		p := 1e-3 + math.Abs(math.Mod(raw, 0.3))
		r := m.RangeForTxPower(p, RxThreshW)
		return relClose(m.ReceivedPower(p, r), RxThreshW, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWavelength(t *testing.T) {
	if !relClose(Wavelength, 0.328, 0.01) {
		t.Errorf("wavelength = %v, want ~0.328 m", Wavelength)
	}
}
