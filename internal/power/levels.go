// Package power implements the power-control machinery shared by the
// paper's protocols: the ten discrete WaveLAN transmit power levels, the
// per-neighbour power-history table (needed power and propagation gain,
// 3 s expiry), and the noise-tolerance registry PCMAC builds from
// power-control channel broadcasts.
package power

import "sort"

// MaxW is the paper's "normal (maximal)" power level: 281.8 mW, whose
// decode range under the two-ray ground model is 250 m. Every
// transmission that is not power-controlled uses it.
const MaxW = 0.2818

// levels is the paper's ascending ten-level dial (Section IV): 1, 2,
// 3.45, 4.8, 7.25, 10.6, 15, 36.6, 75.8 and 281.8 mW, corresponding to
// decode ranges of 40…250 m under the two-ray ground model.
var levels = [...]float64{0.001, 0.002, 0.00345, 0.0048, 0.00725, 0.0106, 0.015, 0.0366, 0.0758, MaxW}

// Table returns the ten power levels in watts, ascending.
func Table() [len(levels)]float64 { return levels }

// Quantize returns the smallest level >= w. Requests above the maximum
// clamp to the maximum (the radio cannot do better); requests at or
// below zero return the minimum level.
func Quantize(w float64) float64 {
	i := sort.SearchFloat64s(levels[:], w)
	if i >= len(levels) {
		return MaxW
	}
	return levels[i]
}

// StepUp returns the next level strictly above w, clamping to the
// maximum. ok is false when w is already at or above the maximum — the
// paper's Step 2 "increase by one class until it gets to the maximal
// level".
func StepUp(w float64) (next float64, ok bool) {
	for _, v := range levels {
		if v > w {
			return v, true
		}
	}
	return MaxW, false
}
