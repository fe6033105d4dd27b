// Package phys implements the wireless physical layer the paper's
// evaluation ran on: the ns-2 two-ray-ground propagation model with the
// Lucent WaveLAN constants, and an interference-accumulating radio model
// with SINR-based capture. It stands in for ns-2's Channel/WirelessPhy.
package phys

import "math"

// SpeedOfLight in metres per second, used for wavelength and propagation
// delay.
const SpeedOfLight = 299_792_458.0

// Params collects the physical-layer constants. The zero value is not
// usable; start from DefaultParams.
type Params struct {
	// FrequencyHz is the carrier frequency. The paper (and ns-2's WaveLAN
	// model) uses 914 MHz.
	FrequencyHz float64
	// TxAntennaGain and RxAntennaGain are the dimensionless antenna gains
	// Gt and Gr (1.0 for ns-2's omni antenna).
	TxAntennaGain, RxAntennaGain float64
	// AntennaHeightM is the antenna height above ground for the two-ray
	// model (1.5 m in ns-2); both ends are assumed equal.
	AntennaHeightM float64
	// SystemLoss is the loss factor L >= 1 (1.0 in ns-2).
	SystemLoss float64
	// RxThreshW is the minimum received power to decode a frame
	// (decoding-zone edge). ns-2's 3.652e-10 W puts it at 250 m for the
	// 281.8 mW maximum power.
	RxThreshW float64
	// CsThreshW is the minimum received power to sense carrier
	// (carrier-sensing-zone edge). ns-2's 1.559e-11 W puts it at 550 m.
	CsThreshW float64
	// CaptureRatio is CP, the SINR (as a plain ratio, not dB) above which
	// a frame decodes despite interference. ns-2 uses 10.
	CaptureRatio float64
	// NoiseFloorW is the ambient noise power Pn the receiver always sees.
	NoiseFloorW float64
	// MaxTxPowerW is the "normal (maximal)" power level of the paper:
	// 281.8 mW, reaching 250 m.
	MaxTxPowerW float64
}

// DefaultParams returns the ns-2 / Lucent WaveLAN constants used
// throughout the paper's simulations.
func DefaultParams() Params {
	return Params{
		FrequencyHz:    914e6,
		TxAntennaGain:  1.0,
		RxAntennaGain:  1.0,
		AntennaHeightM: 1.5,
		SystemLoss:     1.0,
		RxThreshW:      3.652e-10,
		CsThreshW:      1.559e-11,
		CaptureRatio:   10.0,
		NoiseFloorW:    1e-13,
		MaxTxPowerW:    0.2818,
	}
}

// Wavelength returns the carrier wavelength in metres.
func (p Params) Wavelength() float64 { return SpeedOfLight / p.FrequencyHz }

// CrossoverDist returns the distance at which the two-ray ground model
// switches from Friis free-space to the d^4 ground-reflection regime:
// 4*pi*ht*hr/lambda (~86 m for the WaveLAN constants).
func (p Params) CrossoverDist() float64 {
	return 4 * math.Pi * p.AntennaHeightM * p.AntennaHeightM / p.Wavelength()
}
