// Package phys implements the wireless physical layer the paper's
// evaluation ran on: the ns-2 two-ray-ground propagation model with the
// Lucent WaveLAN constants, and an interference-accumulating radio model
// with SINR-based capture. It stands in for ns-2's Channel/WirelessPhy.
package phys

import "math"

// The ns-2 / Lucent WaveLAN constants of the paper's simulations. The
// antenna gains Gt, Gr and the system loss L are all 1.0 in ns-2, so the
// propagation formulas leave them out.
const (
	// SpeedOfLight in metres per second, used for wavelength and
	// propagation delay.
	SpeedOfLight = 299_792_458.0
	// FrequencyHz is the carrier frequency: 914 MHz.
	FrequencyHz = 914e6
	// Wavelength is the carrier wavelength in metres.
	Wavelength = SpeedOfLight / FrequencyHz
	// AntennaHeightM is the antenna height above ground for the two-ray
	// model (1.5 m in ns-2); both ends are assumed equal.
	AntennaHeightM = 1.5
	// CrossoverDistM is the distance at which the two-ray ground model
	// switches from Friis free-space to the d^4 ground-reflection
	// regime: 4*pi*ht*hr/lambda (~86 m). The constant has the same bits
	// as the float64 steps evaluated left to right.
	CrossoverDistM = 4 * math.Pi * AntennaHeightM * AntennaHeightM / Wavelength
	// RxThreshW is the minimum received power to decode a frame
	// (decoding-zone edge). ns-2's 3.652e-10 W puts it at 250 m for the
	// 281.8 mW maximum power.
	RxThreshW = 3.652e-10
	// CsThreshW is the minimum received power to sense carrier
	// (carrier-sensing-zone edge). ns-2's 1.559e-11 W puts it at 550 m.
	// It is also the channel's delivery floor: as in the ns-2 PHY the
	// paper used, frames too weak to sense are dropped at the interface
	// and contribute neither carrier nor interference. (A physically
	// stricter model would integrate them into the noise floor; ns-2's
	// evaluation — and therefore the paper's — does not.)
	CsThreshW = 1.559e-11
	// CaptureRatio is CP, the SINR (as a plain ratio, not dB) above
	// which a frame decodes despite interference. ns-2 uses 10.
	CaptureRatio = 10.0
	// NoiseFloorW is the ambient noise power Pn the receiver always
	// sees.
	NoiseFloorW = 1e-13
)
