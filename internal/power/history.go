package power

import (
	"repro/internal/idtab"
	"repro/internal/packet"
	"repro/internal/sim"
)

// HistoryEntry records what a terminal has learned about the link to one
// neighbour from the last frame it heard from them.
type HistoryEntry struct {
	// Gain is the linear propagation gain Pr/Pt (paper assumption 2
	// makes it symmetric, so it serves both directions).
	Gain float64
	// UpdatedAt is when the entry was last refreshed.
	UpdatedAt sim.Time
}

// History is the paper's per-terminal "power history table": for every
// neighbour recently heard from, the propagation gain and therefore the
// needed power level to reach it. Entries expire after Expiry (3 s in
// the paper); expired entries read as absent and the caller falls back
// to the normal (maximal) power level.
//
// Every frame a node hears refreshes one entry, so the entries live in
// an open-addressed idtab.Table keyed by neighbour ID. A stale entry is
// deleted when it is read; nothing iterates the table.
type History struct {
	// Expiry is the entry lifetime. Zero or negative disables expiry.
	Expiry sim.Duration

	clock   func() sim.Time
	entries idtab.Table[HistoryEntry]
}

// NewHistory returns an empty table reading time from clock.
func NewHistory(clock func() sim.Time, expiry sim.Duration) *History {
	return &History{Expiry: expiry, clock: clock}
}

// Observe learns from a frame heard from neighbour `from`, transmitted
// at txPowerW and received at rxPowerW. Non-positive powers are ignored
// (frames without the power header extension).
func (h *History) Observe(from packet.NodeID, txPowerW, rxPowerW float64) {
	if txPowerW <= 0 || rxPowerW <= 0 {
		return
	}
	h.entries.Put(uint64(from), HistoryEntry{
		Gain:      rxPowerW / txPowerW,
		UpdatedAt: h.clock(),
	})
}

// Gain returns the propagation gain to neighbour id, if a fresh entry
// exists.
func (h *History) Gain(id packet.NodeID) (float64, bool) {
	e, ok := h.entries.Get(uint64(id))
	if !ok {
		return 0, false
	}
	if h.stale(e) {
		h.entries.Delete(uint64(id))
		return 0, false
	}
	return e.Gain, true
}

// NeededPower returns the transmit power required to deliver rxThreshW
// at neighbour id (the paper's P_needed = P_thresh * Pt / Pr), or
// (0, false) when no fresh entry exists and the caller must use the
// maximum level.
func (h *History) NeededPower(id packet.NodeID, rxThreshW float64) (float64, bool) {
	g, ok := h.Gain(id)
	if !ok || g <= 0 {
		return 0, false
	}
	return rxThreshW / g, true
}

// Len returns the number of stored (possibly stale) entries.
func (h *History) Len() int { return h.entries.Len() }

func (h *History) stale(e HistoryEntry) bool {
	return h.Expiry > 0 && h.clock().Sub(e.UpdatedAt) > h.Expiry
}
