// Command ranges prints the physical-layer geometry of the paper:
// the decoding/carrier-sensing zone radii of Figure 3 and the ten
// transmit power levels of Section IV with their zone radii under the
// two-ray ground model.
package main

import (
	"fmt"

	"repro/internal/phys"
	"repro/internal/power"
)

func main() {
	m := phys.NewTwoRayGround()

	fmt.Println("Two-ray ground model, Lucent WaveLAN constants (ns-2 defaults)")
	fmt.Printf("  frequency        %.0f MHz (wavelength %.3f m)\n", phys.FrequencyHz/1e6, phys.Wavelength)
	fmt.Printf("  antenna height   %.1f m, crossover distance %.1f m\n", phys.AntennaHeightM, phys.CrossoverDistM)
	fmt.Printf("  RXThresh         %.4g W\n", phys.RxThreshW)
	fmt.Printf("  CSThresh         %.4g W\n", phys.CsThreshW)
	fmt.Printf("  capture ratio    %.0f (10 dB)\n", phys.CaptureRatio)
	fmt.Println()
	fmt.Println("Figure 3 zone radii at the normal (maximal) power level:")
	fmt.Printf("  decoding zone       %.1f m\n", m.RangeForTxPower(power.MaxW, phys.RxThreshW))
	fmt.Printf("  carrier-sensing zone %.1f m\n", m.RangeForTxPower(power.MaxW, phys.CsThreshW))
	fmt.Println()
	fmt.Println("Section IV power levels:")
	fmt.Printf("  %-12s %-14s %-14s\n", "power", "decode range", "sense range")
	for _, w := range power.Table() {
		fmt.Printf("  %8.2f mW %10.1f m %12.1f m\n",
			w*1e3,
			m.RangeForTxPower(w, phys.RxThreshW),
			m.RangeForTxPower(w, phys.CsThreshW))
	}
}
