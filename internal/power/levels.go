// Package power implements the power-control machinery shared by the
// paper's protocols: the ten discrete WaveLAN transmit power levels, the
// per-neighbour power-history table (needed power and propagation gain,
// 3 s expiry), and the noise-tolerance registry PCMAC builds from
// power-control channel broadcasts.
package power

import "sort"

// Levels is an ascending set of selectable transmit powers in watts.
type Levels []float64

// DefaultLevels returns the paper's ten levels (Section IV): 1, 2, 3.45,
// 4.8, 7.25, 10.6, 15, 36.6, 75.8 and 281.8 mW, corresponding to decode
// ranges of 40…250 m under the two-ray ground model.
func DefaultLevels() Levels {
	return Levels{0.001, 0.002, 0.00345, 0.0048, 0.00725, 0.0106, 0.015, 0.0366, 0.0758, 0.2818}
}

// Max returns the highest level — the paper's "normal (maximal)" power.
func (l Levels) Max() float64 { return l[len(l)-1] }

// Min returns the lowest level.
func (l Levels) Min() float64 { return l[0] }

// Quantize returns the smallest level >= w. Requests above the maximum
// clamp to the maximum (the radio cannot do better); requests at or
// below zero return the minimum level.
func (l Levels) Quantize(w float64) float64 {
	i := sort.SearchFloat64s(l, w)
	if i >= len(l) {
		return l.Max()
	}
	return l[i]
}

// StepUp returns the next level strictly above w, clamping to the
// maximum. ok is false when w is already at or above the maximum — the
// paper's Step 2 "increase by one class until it gets to the maximal
// level".
func (l Levels) StepUp(w float64) (next float64, ok bool) {
	for _, v := range l {
		if v > w {
			return v, true
		}
	}
	return l.Max(), false
}

// Index returns the position of the smallest level >= w, for reporting.
func (l Levels) Index(w float64) int {
	i := sort.SearchFloat64s(l, w)
	if i >= len(l) {
		return len(l) - 1
	}
	return i
}
