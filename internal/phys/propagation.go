package phys

import "math"

// Propagation computes received power from transmitted power and
// distance. Implementations must be deterministic so simulation runs are
// reproducible.
type Propagation interface {
	// ReceivedPower returns the power (W) observed at a receiver dist
	// metres from a transmitter emitting txPower watts.
	ReceivedPower(txPower, dist float64) float64
}

// TwoRayGround is ns-2's TwoRayGround model: the Friis free-space model
// Pr = Pt*Gt*Gr*lambda^2 / ((4*pi*d)^2 * L) below the crossover
// distance, and the ground-reflection approximation
// Pr = Pt*Gt*Gr*ht^2*hr^2 / (d^4 * L) beyond it. This is the model the
// paper's ten power levels and 250 m / 550 m zone radii come from.
type TwoRayGround struct{}

// h2 is ht^2 = hr^2, exact in float64.
const h2 = AntennaHeightM * AntennaHeightM

// NewTwoRayGround returns the two-ray model with the WaveLAN constants.
func NewTwoRayGround() *TwoRayGround { return &TwoRayGround{} }

// ReceivedPower implements Propagation. At zero distance it returns the
// transmit power (the self-reception degenerate case never used by the
// channel, which skips the sender).
func (m *TwoRayGround) ReceivedPower(txPower, dist float64) float64 {
	if dist <= 0 {
		return txPower
	}
	if dist < CrossoverDistM {
		denom := 4 * math.Pi * dist
		return txPower * Wavelength * Wavelength / (denom * denom)
	}
	d2 := dist * dist
	return txPower * h2 * h2 / (d2 * d2)
}

// RangeForTxPower returns the distance at which received power falls to
// thresh when transmitting at txPower — the decode (thresh=RxThresh) or
// carrier-sense (thresh=CsThresh) zone radius of the paper's Figure 3.
func (m *TwoRayGround) RangeForTxPower(txPower, thresh float64) float64 {
	// Try the Friis regime first.
	k := txPower * Wavelength * Wavelength / (16 * math.Pi * math.Pi)
	if d := math.Sqrt(k / thresh); d < CrossoverDistM {
		return d
	}
	// Ground-reflection regime.
	return math.Pow(txPower*h2*h2/thresh, 0.25)
}
