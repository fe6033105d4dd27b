package phys

import (
	"math"
	"math/rand"
)

// Shadowing overlays log-normal fading on a base propagation model:
//
//	Pr = base(d) * 10^(X/10),  X ~ N(0, sigma^2) dB.
//
// The paper's evaluation uses the deterministic two-ray model; its
// Step 2 nevertheless keeps a 0.7 safety coefficient "because the noise
// level might be fluctuating". Shadowing makes that fluctuation real
// while preserving the paper's calibrated geometry (250 m / 550 m zones
// in the mean), so the protocols' fading sensitivity can be swept
// (BenchmarkAblationShadowing).
//
// Draws come from the model's own seeded generator: runs remain
// reproducible for a fixed seed and event order, but a given link's
// gain varies frame to frame, which is the point.
type Shadowing struct {
	// Base is the deterministic model being perturbed.
	Base Propagation
	// SigmaDB is the standard deviation of the fade in dB (4.0 is
	// ns-2's outdoor default). Zero reproduces Base exactly.
	SigmaDB float64

	rng *rand.Rand
}

// NewShadowing wraps base with log-normal fading of the given deviation.
func NewShadowing(base Propagation, sigmaDB float64, seed int64) *Shadowing {
	if base == nil {
		panic("phys: nil base model for shadowing")
	}
	if sigmaDB < 0 {
		panic("phys: negative shadowing deviation")
	}
	return &Shadowing{Base: base, SigmaDB: sigmaDB, rng: rand.New(rand.NewSource(seed))}
}

// ReceivedPower implements Propagation. It is definitionally
// MeanReceivedPower * Fade — the channel's link cache relies on that
// factoring to split the deterministic mean (cached per link) from the
// per-delivery draw while consuming the generator identically.
func (m *Shadowing) ReceivedPower(txPower, dist float64) float64 {
	return m.MeanReceivedPower(txPower, dist) * m.Fade()
}

// MeanReceivedPower returns the deterministic (zero-fade) power at dist.
func (m *Shadowing) MeanReceivedPower(txPower, dist float64) float64 {
	return m.Base.ReceivedPower(txPower, dist)
}

// Fade draws one multiplicative fade factor 10^(X/10), X ~ N(0, sigma^2)
// dB — the same draw ReceivedPower applies internally. The channel's
// link cache uses it to compose a per-delivery fade onto the cached mean
// gain: MeanReceivedPower(p, d) * Fade() consumes the generator exactly
// as ReceivedPower(p, d) does, so cached rows and the full-model walk see
// the same random stream. Zero sigma returns 1 without consuming a draw,
// mirroring ReceivedPower's zero-sigma shortcut.
func (m *Shadowing) Fade() float64 {
	if m.SigmaDB == 0 {
		return 1
	}
	xDB := m.rng.NormFloat64() * m.SigmaDB
	return math.Pow(10, xDB/10)
}
