// Package mac implements the IEEE 802.11 DCF medium access control the
// paper modifies, and all four protocols it evaluates: basic 802.11
// (no power control), Scheme 1 (max-power RTS/CTS, min-power DATA/ACK),
// Scheme 2 (min power for all unicast frames), and PCMAC (min power
// everywhere, a power-control channel protecting receivers, and a
// three-way RTS-CTS-DATA handshake for data).
package mac

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// The 802.11 timing and limit constants of the ns-2 DSSS PHY at 2 Mbps
// that the paper simulated, plus the power-control margin.
const (
	// SlotTime, SIFS and DIFS are the DSSS interframe timings.
	SlotTime = 20 * sim.Microsecond
	SIFS     = 10 * sim.Microsecond
	DIFS     = 50 * sim.Microsecond
	// PLCP is the physical preamble+header time prepended to every
	// frame (192 us long preamble at 1 Mbps).
	PLCP = 192 * sim.Microsecond
	// BasicRateBps carries control frames (RTS/CTS/ACK); DataRateBps
	// carries data frames. The paper's PHY runs 2 Mbps data.
	BasicRateBps = 1e6
	DataRateBps  = 2e6
	// CWMin and CWMax bound the contention window (31/1023 slots).
	CWMin, CWMax = 31, 1023
	// ShortRetryLimit bounds RTS attempts; LongRetryLimit bounds
	// DATA attempts.
	ShortRetryLimit, LongRetryLimit = 7, 4
	// QueueCap is the interface queue depth (ns-2 default 50).
	QueueCap = 50
	// MaxPayloadBytes bounds data payloads; the paper fixes data
	// packets at 512 bytes (PCMAC assumption 4 relies on it).
	MaxPayloadBytes = 512
	// PowerMargin scales the computed minimum needed power before
	// quantization to a level, covering estimation error and fading.
	PowerMargin = 2.0
)

// AirTime returns PLCP preamble plus payload serialization time for a
// frame of the given size at the given rate.
func AirTime(bytes int, rateBps float64) sim.Duration {
	return PLCP + sim.DurationOf(float64(bytes*8)/rateBps)
}

// FrameAirTime returns the airtime of a MAC frame: control frames at the
// basic rate, data frames at the data rate.
func FrameAirTime(f *packet.Frame) sim.Duration {
	rate := BasicRateBps
	if f.Kind == packet.KindData {
		rate = DataRateBps
	}
	return AirTime(f.Bytes(), rate)
}

// MaxDataAirTime is the airtime of the largest (extended-header,
// max-payload) DATA frame.
func MaxDataAirTime() sim.Duration {
	return AirTime(packet.DataHeaderBytes+packet.PCMACHeaderExtra+MaxPayloadBytes, DataRateBps)
}

// EIFS is the extended interframe space used after an errored reception:
// SIFS + DIFS + the time to send an ACK at the basic rate, long enough
// to protect a response frame the deferring station could not decode.
func EIFS() sim.Duration {
	return SIFS + DIFS + AirTime(packet.AckBytes, BasicRateBps)
}

// ctsTimeout is how long a sender waits for a CTS after its RTS leaves
// the air; sized for the extended (power-control) CTS.
func ctsTimeout() sim.Duration {
	return SIFS + AirTime(packet.CTSBytes+packet.PCMACHeaderExtra, BasicRateBps) + 2*SlotTime
}

// ackTimeout is how long a sender waits for an ACK after its DATA leaves
// the air; sized for the extended (power-control) ACK.
func ackTimeout() sim.Duration {
	return SIFS + AirTime(packet.AckBytes+packet.PCMACHeaderExtra, BasicRateBps) + 2*SlotTime
}

// dataTimeout is how long a receiver waits for the DATA after its CTS
// leaves the air; sized for the largest payload.
func dataTimeout() sim.Duration {
	return SIFS + MaxDataAirTime() + 2*SlotTime
}
