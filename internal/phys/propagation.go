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

// FreeSpace is the Friis free-space model:
// Pr = Pt*Gt*Gr*lambda^2 / ((4*pi*d)^2 * L).
type FreeSpace struct {
	p Params
}

// NewFreeSpace returns a Friis model with the given constants.
func NewFreeSpace(p Params) *FreeSpace { return &FreeSpace{p: p} }

// RangeForTxPower implements Ranger: the distance at which received
// power decays to thresh.
func (f *FreeSpace) RangeForTxPower(txPower, thresh float64) float64 {
	lambda := f.p.Wavelength()
	k := txPower * f.p.TxAntennaGain * f.p.RxAntennaGain * lambda * lambda /
		(16 * math.Pi * math.Pi * f.p.SystemLoss)
	return math.Sqrt(k / thresh)
}

// ReceivedPower implements Propagation. At zero distance it returns the
// transmit power (the self-reception degenerate case never used by the
// channel, which skips the sender).
func (f *FreeSpace) ReceivedPower(txPower, dist float64) float64 {
	if dist <= 0 {
		return txPower
	}
	lambda := f.p.Wavelength()
	denom := 4 * math.Pi * dist
	return txPower * f.p.TxAntennaGain * f.p.RxAntennaGain * lambda * lambda /
		(denom * denom * f.p.SystemLoss)
}

// TwoRayGround is ns-2's TwoRayGround model: Friis below the crossover
// distance, and the ground-reflection approximation
// Pr = Pt*Gt*Gr*ht^2*hr^2 / (d^4 * L) beyond it. This is the model the
// paper's ten power levels and 250 m / 550 m zone radii come from.
type TwoRayGround struct {
	p         Params
	friis     *FreeSpace
	crossover float64
}

// NewTwoRayGround returns a two-ray model with the given constants.
func NewTwoRayGround(p Params) *TwoRayGround {
	return &TwoRayGround{p: p, friis: NewFreeSpace(p), crossover: p.CrossoverDist()}
}

// Crossover returns the Friis/ground-reflection switch distance.
func (m *TwoRayGround) Crossover() float64 { return m.crossover }

// ReceivedPower implements Propagation.
func (m *TwoRayGround) ReceivedPower(txPower, dist float64) float64 {
	if dist < m.crossover {
		return m.friis.ReceivedPower(txPower, dist)
	}
	h2 := m.p.AntennaHeightM * m.p.AntennaHeightM
	d2 := dist * dist
	return txPower * m.p.TxAntennaGain * m.p.RxAntennaGain * h2 * h2 /
		(d2 * d2 * m.p.SystemLoss)
}

// RangeForTxPower returns the distance at which received power falls to
// thresh when transmitting at txPower — the decode (thresh=RxThresh) or
// carrier-sense (thresh=CsThresh) zone radius of the paper's Figure 3.
func (m *TwoRayGround) RangeForTxPower(txPower, thresh float64) float64 {
	// Try the Friis regime first.
	if d := m.friis.RangeForTxPower(txPower, thresh); d < m.crossover {
		return d
	}
	// Ground-reflection regime.
	h2 := m.p.AntennaHeightM * m.p.AntennaHeightM
	k := txPower * m.p.TxAntennaGain * m.p.RxAntennaGain * h2 * h2 / m.p.SystemLoss
	return math.Pow(k/thresh, 0.25)
}
