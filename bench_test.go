// Package repro's root benchmarks regenerate every figure of the
// paper's evaluation (the README's "Campaigns" section lists the
// matching full-length presets) plus the ablation studies of PCMAC's design choices. Each benchmark runs a
// complete simulation per iteration and reports the figure's metric via
// b.ReportMetric, so
//
//	go test -bench=Fig8 -benchmem
//
// prints one row per (protocol, load) with throughput in kbps exactly
// as Figure 8 plots it. Benchmarks use shortened horizons so the whole
// suite stays laptop-scale; the fig8/fig9 campaign presets run the
// full-length versions.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/mac"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// benchDuration is the simulated horizon per benchmark iteration. The
// paper simulates 400 s; 15 s keeps `go test -bench=.` under two
// minutes while preserving the protocols' relative order.
const benchDuration = 15 * sim.Second

// runPoint runs one (scheme, load) simulation per benchmark iteration
// and reports the requested metrics.
func runPoint(b *testing.B, opts scenario.Options, metric string) {
	b.Helper()
	var tput, delay, pdr, energy float64
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		res, err := scenario.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		tput += res.ThroughputKbps
		delay += res.AvgDelayMs
		pdr += res.PDR
		energy += res.RadiatedEnergyJ + res.CtrlRadiatedEnergyJ
	}
	n := float64(b.N)
	switch metric {
	case "throughput":
		b.ReportMetric(tput/n, "kbps")
	case "delay":
		b.ReportMetric(delay/n, "ms")
	case "both":
		b.ReportMetric(tput/n, "kbps")
		b.ReportMetric(delay/n, "ms")
	}
	b.ReportMetric(pdr/n, "pdr")
	b.ReportMetric(energy/n, "J")
}

// BenchmarkFig1SpatialReuse regenerates the Figure 1 motivation: two
// short pairs whose transmissions can coexist only under power control.
// Compare the kbps metric across protocols.
func BenchmarkFig1SpatialReuse(b *testing.B) {
	for _, s := range mac.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			opts := scenario.Fig1Options(s)
			opts.Duration = benchDuration
			runPoint(b, opts, "throughput")
		})
	}
}

// BenchmarkFig4Asymmetric regenerates the Figure 4 asymmetric-link
// scenario; the ms metric shows the suppressed low-power pair's delay
// penalty under Scheme 2 and its rescue under PCMAC.
func BenchmarkFig4Asymmetric(b *testing.B) {
	for _, s := range mac.Schemes() {
		b.Run(s.String(), func(b *testing.B) {
			opts := scenario.Fig4Options(s)
			opts.Duration = benchDuration
			runPoint(b, opts, "both")
		})
	}
}

// BenchmarkFig6Scheme1 regenerates the Figure 5/6 shrunken-sensing-zone
// scenario that damages Scheme 1 specifically.
func BenchmarkFig6Scheme1(b *testing.B) {
	for _, s := range []mac.Scheme{mac.Basic, mac.Scheme1, mac.PCMAC} {
		b.Run(s.String(), func(b *testing.B) {
			opts := scenario.Fig6Options(s)
			opts.Duration = benchDuration
			runPoint(b, opts, "both")
		})
	}
}

// fig8Loads is the offered-load axis for the headline sweep. The paper
// sweeps 300-1000 kbps on ns-2; our substrate saturates earlier, so the
// interesting region sits at 300-500 kbps.
var fig8Loads = []float64{300, 400, 500}

// BenchmarkFig8Throughput regenerates Figure 8: aggregate network
// throughput (the kbps metric) versus offered load for the four
// protocols on the full 50-node Section IV scenario.
func BenchmarkFig8Throughput(b *testing.B) {
	for _, s := range mac.Schemes() {
		for _, load := range fig8Loads {
			b.Run(fmt.Sprintf("%s/load=%.0f", s, load), func(b *testing.B) {
				runPoint(b, scenario.Options{
					Scheme:          s,
					OfferedLoadKbps: load,
					Duration:        benchDuration,
				}, "throughput")
			})
		}
	}
}

// BenchmarkFig9Delay regenerates Figure 9: average end-to-end delay
// (the ms metric) versus offered load for the four protocols.
func BenchmarkFig9Delay(b *testing.B) {
	for _, s := range mac.Schemes() {
		for _, load := range fig8Loads {
			b.Run(fmt.Sprintf("%s/load=%.0f", s, load), func(b *testing.B) {
				runPoint(b, scenario.Options{
					Scheme:          s,
					OfferedLoadKbps: load,
					Duration:        benchDuration,
				}, "delay")
			})
		}
	}
}

// --- ablations (design choices the paper asserts but never sweeps) ---

// BenchmarkAblationSafetyFactor sweeps the paper's 0.7 redundancy
// coefficient in the tolerance check.
func BenchmarkAblationSafetyFactor(b *testing.B) {
	for _, sf := range []float64{0.5, 0.7, 0.9, 1.0} {
		b.Run(fmt.Sprintf("safety=%.1f", sf), func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:          mac.PCMAC,
				OfferedLoadKbps: 400,
				Duration:        benchDuration,
				SafetyFactor:    sf,
			}, "both")
		})
	}
}

// BenchmarkAblationNoCtrlChannel removes the power-control channel,
// leaving only the three-way handshake.
func BenchmarkAblationNoCtrlChannel(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "with-ctrl"
		if off {
			name = "no-ctrl"
		}
		b.Run(name, func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:             mac.PCMAC,
				OfferedLoadKbps:    400,
				Duration:           benchDuration,
				DisableCtrlChannel: off,
			}, "both")
		})
	}
}

// BenchmarkAblationFourWayPCMAC forces PCMAC back to the four-way
// handshake, isolating the contribution of removing the ACK.
func BenchmarkAblationFourWayPCMAC(b *testing.B) {
	for _, fourWay := range []bool{false, true} {
		name := "three-way"
		if fourWay {
			name = "four-way"
		}
		b.Run(name, func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:          mac.PCMAC,
				OfferedLoadKbps: 400,
				Duration:        benchDuration,
				DisableThreeWay: fourWay,
			}, "both")
		})
	}
}

// BenchmarkAblationHistoryExpiry sweeps the 3 s power-history lifetime.
func BenchmarkAblationHistoryExpiry(b *testing.B) {
	for _, e := range []sim.Duration{sim.Second, 3 * sim.Second, 10 * sim.Second} {
		b.Run(fmt.Sprintf("expiry=%.0fs", e.Seconds()), func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:          mac.PCMAC,
				OfferedLoadKbps: 400,
				Duration:        benchDuration,
				HistoryExpiry:   e,
			}, "both")
		})
	}
}

// BenchmarkAblationCtrlBandwidth sweeps the 500 kbps control-channel
// bandwidth.
func BenchmarkAblationCtrlBandwidth(b *testing.B) {
	for _, bw := range []float64{125e3, 500e3, 2e6} {
		b.Run(fmt.Sprintf("bw=%.0fkbps", bw/1e3), func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:           mac.PCMAC,
				OfferedLoadKbps:  400,
				Duration:         benchDuration,
				CtrlBandwidthBps: bw,
			}, "both")
		})
	}
}

// BenchmarkAblationShadowing swaps the deterministic two-ray model for
// log-normal shadowing — the channel fluctuation the paper's 0.7 safety
// coefficient anticipates — and compares PCMAC against basic 802.11
// under increasing fade deviations.
func BenchmarkAblationShadowing(b *testing.B) {
	for _, sigma := range []float64{0, 2, 4} {
		for _, s := range []mac.Scheme{mac.Basic, mac.PCMAC} {
			b.Run(fmt.Sprintf("sigma=%.0fdB/%s", sigma, s), func(b *testing.B) {
				runPoint(b, scenario.Options{
					Scheme:           s,
					OfferedLoadKbps:  400,
					Duration:         benchDuration,
					ShadowingSigmaDB: sigma,
				}, "both")
			})
		}
	}
}

// BenchmarkAblationRTSThreshold enables 802.11 basic access for small
// frames (AODV control packets skip RTS/CTS), a fidelity knob the
// paper inherits from ns-2 at "always RTS".
func BenchmarkAblationRTSThreshold(b *testing.B) {
	for _, thr := range []int{0, 256} {
		name := "always-rts"
		if thr > 0 {
			name = fmt.Sprintf("thresh=%dB", thr)
		}
		b.Run(name, func(b *testing.B) {
			runPoint(b, scenario.Options{
				Scheme:            mac.PCMAC,
				OfferedLoadKbps:   400,
				Duration:          benchDuration,
				RTSThresholdBytes: thr,
			}, "both")
		})
	}
}
