package scenario

import (
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The controlled topologies behind the paper's illustrative figures.
// Geometry notes use the two-ray model's zone radii: at the maximal
// 281.8 mW a transmission decodes to 250 m and is sensed to 550 m; at
// 10.6 mW those shrink to ~110 m and ~242 m.

// Fig1Options is the paper's Figure 1 motivation: two short pairs,
// A(0)->B(60) and C(300)->D(360), far enough apart that low-power
// transmissions can proceed simultaneously but close enough that
// maximal-power transmissions serialize through carrier sense. Judicious
// power control should therefore raise aggregate throughput.
func Fig1Options(scheme mac.Scheme) Options {
	return Options{
		Scheme: scheme,
		Static: []geom.Point{
			{X: 0, Y: 0},   // A
			{X: 60, Y: 0},  // B
			{X: 300, Y: 0}, // C
			{X: 360, Y: 0}, // D
		},
		FlowPairs:         [][2]packet.NodeID{{0, 1}, {2, 3}},
		OfferedLoadKbps:   1600, // saturate both links
		Duration:          20 * sim.Second,
		Warmup:            2 * sim.Second,
		FlowRateSpreadPct: 10,
	}
}

// Fig4Options is the asymmetric-link scenario of Figure 4: a low-power
// pair A(0)->B(90) and a high-power pair C(335)->D(575). C sits outside
// the sensing zones of A's and B's reduced-power frames (~242 m) but
// within 245 m of B, so C's maximal-power transmissions corrupt B's
// receptions while C hears nothing of the exchange. C is, however,
// inside the 250 m decode range of B's maximal-power control-channel
// announcements, so PCMAC can defer C where Scheme 1/2 cannot.
func Fig4Options(scheme mac.Scheme) Options {
	return Options{
		Scheme: scheme,
		Static: []geom.Point{
			{X: 0, Y: 0},   // A
			{X: 90, Y: 0},  // B
			{X: 335, Y: 0}, // C
			{X: 575, Y: 0}, // D
		},
		FlowPairs:         [][2]packet.NodeID{{0, 1}, {2, 3}},
		OfferedLoadKbps:   700,
		Duration:          20 * sim.Second,
		Warmup:            2 * sim.Second,
		FlowRateSpreadPct: 10,
	}
}

// Fig6Options is the Scheme 1 shrunken-sensing-zone scenario of Figures
// 5/6: A(0)->B(90) hands off RTS/CTS at maximal power but DATA at the
// needed power; E(440) senses the maximal-power RTS/CTS (within 550 m)
// yet decodes neither (beyond 250 m), so after its EIFS it believes the
// medium free and its maximal-power traffic to F(680) lands mid-DATA at
// B (350 m away, well above B's tolerance).
func Fig6Options(scheme mac.Scheme) Options {
	return Options{
		Scheme: scheme,
		Static: []geom.Point{
			{X: 0, Y: 0},   // A
			{X: 90, Y: 0},  // B
			{X: 440, Y: 0}, // E
			{X: 680, Y: 0}, // F
		},
		FlowPairs:         [][2]packet.NodeID{{0, 1}, {2, 3}},
		OfferedLoadKbps:   700,
		Duration:          20 * sim.Second,
		Warmup:            2 * sim.Second,
		FlowRateSpreadPct: 10,
	}
}
