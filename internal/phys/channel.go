package phys

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/sim"
)

// Transmission is one frame in flight on a channel. The payload is
// opaque to the physical layer; the MAC layer stores its frame there.
type Transmission struct {
	// Seq is a channel-unique identifier, useful in traces.
	Seq uint64
	// From is the transmitting radio.
	From *Radio
	// PowerW is the radiated power in watts.
	PowerW float64
	// Bits is the frame length on the air, for bookkeeping.
	Bits int
	// Start is when the transmitter began emitting; Duration is the
	// airtime.
	Start    sim.Time
	Duration sim.Duration
	// Payload is the MAC frame being carried.
	Payload any
}

// End returns the instant the transmitter stops emitting.
func (t *Transmission) End() sim.Time { return t.Start.Add(t.Duration) }

func (t *Transmission) String() string {
	return fmt.Sprintf("tx#%d from r%d %.1fmW %dbits @%v", t.Seq, t.From.ID(), t.PowerW*1e3, t.Bits, t.Start)
}

// Ranger is an optional Propagation capability: models that can invert
// ReceivedPower report the distance at which a given transmit power
// decays to a threshold. The channel uses it to derive a squared-distance
// delivery cutoff so out-of-range radios are pruned with one geom.Dist2
// comparison instead of a full propagation evaluation.
type Ranger interface {
	RangeForTxPower(txPower, thresh float64) float64
}

// linkEntry is one receiver in a transmitter's cached link row: the
// received power at the row's transmit power (the deterministic mean
// when the channel fades), and the speed-of-light propagation delay.
type linkEntry struct {
	to    *Radio
	prW   float64
	delay sim.Duration
}

// linkRow holds, for one (transmitter, power level) pair, the set of
// radios a frame can reach and the per-link mean gain and delay. On a
// pinned channel (SetMaxSpeed(0)) each radio caches its rows, built
// lazily on first transmit and reused until a radio attaches; otherwise
// every frame rebuilds the channel's scratch row.
type linkRow struct {
	attachGen uint64
	cutoff2   float64 // squared delivery-cutoff distance, 0 when unused
	entries   []linkEntry
}

// Channel is a shared broadcast medium: every transmission deposits
// power at every attached radio according to the propagation model, with
// speed-of-light delay. PCMAC's separate power-control channel is simply
// a second Channel holding the same radios' twins (paper assumption 1:
// the two channels do not interfere but share propagation behaviour).
//
// A transmit walks a link row of in-range receivers with their mean
// gain and propagation delay instead of evaluating the propagation
// model against every radio. The motion promise (SetMaxSpeed) decides
// where rows come from: pinned channels cache one row per (transmitter,
// power level), invalidated only by radio attachment; moving channels
// rebuild the transmitter's row every frame, since some node is almost
// always in flight. Under a promise, row builds are served by a spatial
// cell grid over the attached radios (grid.go), enumerating only the
// cells overlapping the delivery-cutoff disk — O(neighbors) instead of
// O(radios) per build.
type Channel struct {
	sched *sim.Scheduler
	model Propagation

	radios []*Radio
	seq    uint64

	// fade is non-nil when model is a *Shadowing: rows then cache the
	// deterministic mean from the base model and each delivery applies a
	// fresh dB draw, so fading sweeps keep their per-frame variation
	// (and their exact RNG stream) while still skipping the geometry.
	fade *Shadowing

	// attachGen invalidates rows when radios attach after rows built.
	attachGen uint64

	// grid is the spatial index over attached radios (see grid.go).
	// maxSpeed is the SetMaxSpeed motion bound in m/s (0: pinned, < 0:
	// no promise).
	grid     cellGrid
	maxSpeed float64

	// scratch is the row every frame rebuilds on a channel that is not
	// pinned; spans is the reusable buffer transmit hands the scheduler.
	scratch linkRow
	spans   []sim.Span
}

// NewChannel creates an empty channel using the given propagation model.
// Deliveries below the carrier-sense threshold CsThreshW are pruned.
func NewChannel(sched *sim.Scheduler, model Propagation) *Channel {
	c := &Channel{
		sched:    sched,
		model:    model,
		maxSpeed: -1, // unknown until SetMaxSpeed promises a bound
	}
	if sh, ok := model.(*Shadowing); ok {
		c.fade = sh
	}
	return c
}

// Model returns the channel's propagation model.
func (c *Channel) Model() Propagation { return c.model }

// AttachRadio creates a radio on this channel at the position reported
// by pos (sampled lazily, so mobile nodes just pass their position
// function) and delivers events to h.
func (c *Channel) AttachRadio(id int, pos func() geom.Point, h Handler) *Radio {
	r := new(Radio)
	c.Attach(r, id, pos, h)
	return r
}

// Attach makes the zero Radio r the radio AttachRadio would return, in
// memory the caller owns (a scenario keeps each node's data radio in
// one per-node block). The channel holds r from here on, so r must not
// move or be copied.
func (c *Channel) Attach(r *Radio, id int, pos func() geom.Point, h Handler) {
	*r = Radio{
		ch:      c,
		id:      id,
		idx:     len(c.radios),
		pos:     pos,
		h:       h,
		current: -1,
	}
	c.radios = append(c.radios, r)
	c.attachGen++ // existing cached rows no longer cover the new radio
}

// Radios returns all radios attached to the channel.
func (c *Channel) Radios() []*Radio { return c.radios }

// buildRow fills row with the link entries for radio r transmitting at
// powerW, using positions sampled now. Entry order is whatever order
// candidates yields: the scheduler orders a frame's deliveries by delay
// and receiver attach index, not by row position.
func (c *Channel) buildRow(row *linkRow, r *Radio, powerW float64) {
	row.entries = row.entries[:0]
	row.attachGen = c.attachGen
	src := r.pos()
	// Deterministic model: prune to radios that can sense the frame.
	// When the model can invert itself, a squared-distance cutoff skips
	// the propagation evaluation for far radios; the tiny relative slack
	// keeps radios at the exact boundary inside the exact pr-vs-floor
	// check below, so pruning never changes which radios deliver.
	// Fading: the floor check depends on the per-delivery draw, so every
	// radio stays in the row and only the deterministic mean is cached.
	// (A mean-based cutoff would change which frames a lucky fade can
	// deliver — and desync the RNG stream.)
	row.cutoff2 = 0
	cutoff := 0.0
	if rg, ok := c.model.(Ranger); ok && c.fade == nil {
		cutoff = rg.RangeForTxPower(powerW, CsThreshW) * (1 + 1e-9)
		row.cutoff2 = cutoff * cutoff
	}
	for o := range c.candidates(src, cutoff) {
		if o == r {
			continue
		}
		p := o.pos()
		if row.cutoff2 > 0 && src.Dist2(p) > row.cutoff2 {
			continue
		}
		dist := src.Dist(p)
		var pr float64
		if c.fade != nil {
			pr = c.fade.MeanReceivedPower(powerW, dist)
		} else if pr = c.model.ReceivedPower(powerW, dist); pr < CsThreshW {
			continue
		}
		row.entries = append(row.entries, linkEntry{
			to:    o,
			prW:   pr,
			delay: sim.DurationOf(dist / SpeedOfLight),
		})
	}
}

// linkRowFor returns the link row for r at powerW: the radio's cached
// row on a pinned channel, otherwise the scratch row rebuilt from the
// positions of this instant.
func (c *Channel) linkRowFor(r *Radio, powerW float64) *linkRow {
	if c.maxSpeed != 0 {
		c.buildRow(&c.scratch, r, powerW)
		return &c.scratch
	}
	row, cached := r.rowFor(powerW)
	if !cached || row.attachGen != c.attachGen {
		c.buildRow(row, r, powerW)
	}
	return row
}

// transmit starts a frame on the air from r. It is called by
// Radio.Transmit, which validates state. The frame's deliveries, fading
// draws taken in row order (attach order: a fading row holds every
// radio), go to the scheduler in one ScheduleSpans call: a begin and an
// end arrival per receiver, ordinal its attach index.
func (c *Channel) transmit(r *Radio, powerW float64, bits int, dur sim.Duration, payload any) *Transmission {
	c.seq++
	tx := &Transmission{
		Seq:      c.seq,
		From:     r,
		PowerW:   powerW,
		Bits:     bits,
		Start:    c.sched.Now(),
		Duration: dur,
		Payload:  payload,
	}
	row := c.linkRowFor(r, powerW)
	spans := c.spans[:0]
	for i := range row.entries {
		en := &row.entries[i]
		pr := en.prW
		if c.fade != nil {
			if pr *= c.fade.Fade(); pr < CsThreshW {
				continue
			}
		}
		spans = append(spans, sim.Span{D: en.delay, O: uint32(en.to.idx), H: en.to, X: pr})
	}
	c.sched.ScheduleSpans(spans, dur, evBeginArrival, evEndArrival, tx)
	c.spans = spans
	return tx
}
