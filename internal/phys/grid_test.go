package phys

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// dialLevels is the paper's ten transmit power levels in watts, the
// discrete set link rows are keyed by.
var dialLevels = []float64{1e-3, 2e-3, 3.45e-3, 5.95e-3, 10.26e-3,
	17.7e-3, 30.53e-3, 52.65e-3, 90.8e-3, 281.8e-3}

// TestGridCandidatesProperty is the spatial-index soundness property:
// for random placements and every power level, (a) the grid's candidate
// enumeration is a superset of the delivery-cutoff disk, and (b) the
// link row built from grid candidates equals the reference walk's
// (UseReferenceWalk) exactly — same receivers, same order, bit-identical
// received powers and delays.
func TestGridCandidatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		sched := sim.NewScheduler()
		par := DefaultParams()
		ch := NewChannel(sched, NewTwoRayGround(par), par)
		ref := NewChannel(sched, NewTwoRayGround(par), par)
		UseReferenceWalk(ref)
		n := 5 + rng.Intn(80)
		for i := 0; i < n; i++ {
			p := geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
			ch.AttachRadio(i, func() geom.Point { return p }, benchHandler{})
			ref.AttachRadio(i, func() geom.Point { return p }, benchHandler{})
		}
		src := ch.radios[rng.Intn(n)]
		for _, powerW := range dialLevels {
			cutoff := ch.model.(Ranger).RangeForTxPower(powerW, ch.deliverFloorW) * (1 + 1e-9)

			// (a) superset of the cutoff disk.
			cands := ch.gridCandidates(src.pos(), cutoff)
			inCand := make(map[int32]bool, len(cands))
			last := int32(-1)
			for _, j := range cands {
				if j <= last {
					t.Fatalf("trial %d power %g: candidates not in attach order: %v", trial, powerW, cands)
				}
				last = j
				inCand[j] = true
			}
			for _, o := range ch.radios {
				if src.pos().Dist2(o.pos()) <= cutoff*cutoff && !inCand[int32(o.idx)] {
					t.Fatalf("trial %d power %g: radio %d at dist %.1f inside cutoff %.1f missing from candidates",
						trial, powerW, o.id, src.pos().Dist(o.pos()), cutoff)
				}
			}

			// (b) grid row == reference row, order included, bit for bit.
			var rowG, rowR linkRow
			ch.buildRow(&rowG, src, powerW)
			ref.buildRow(&rowR, ref.radios[src.idx], powerW)
			if len(rowG.entries) != len(rowR.entries) {
				t.Fatalf("trial %d power %g: grid row has %d entries, reference %d",
					trial, powerW, len(rowG.entries), len(rowR.entries))
			}
			for i := range rowG.entries {
				g, r := rowG.entries[i], rowR.entries[i]
				if g.to.idx != r.to.idx || g.prW != r.prW || g.delay != r.delay {
					t.Fatalf("trial %d power %g entry %d: grid {to=%d pr=%b delay=%d} != reference {to=%d pr=%b delay=%d}",
						trial, powerW, i, g.to.id, g.prW, g.delay, r.to.id, r.prW, r.delay)
				}
			}
		}
		if !GridAssigned(ch) || GridAssigned(ref) {
			t.Fatalf("trial %d: grid assigned = %v (grid side), %v (reference side); want true, false",
				trial, GridAssigned(ch), GridAssigned(ref))
		}
	}
}

// recHandler records every delivery with bit-exact powers and times.
type recHandler struct{ log *[]string }

func (h recHandler) RadioRxBegin(tx *Transmission, p float64) {
	*h.log = append(*h.log, fmt.Sprintf("begin tx%d at r%d t=%d p=%b", tx.Seq, tx.From.ID(), 0, p))
}
func (h recHandler) RadioRx(tx *Transmission, p float64, err bool) {
	*h.log = append(*h.log, fmt.Sprintf("rx tx%d p=%b err=%v", tx.Seq, p, err))
}
func (h recHandler) RadioCarrierBusy()         {}
func (h recHandler) RadioCarrierIdle()         {}
func (h recHandler) RadioTxDone(*Transmission) {}

// buildRecorded runs the same 30-radio, three-power transmit schedule
// on a channel configured by setup, returning the full delivery log.
func buildRecorded(t *testing.T, setup func(ch *Channel)) []string {
	t.Helper()
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	var log []string
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		p := geom.Point{X: rng.Float64() * 1200, Y: rng.Float64() * 1200}
		ch.AttachRadio(i, func() geom.Point { return p }, recHandler{log: &log})
	}
	setup(ch)
	for i, powerW := range []float64{0.2818, 3.45e-3, 30.53e-3, 0.2818, 1e-3} {
		ch.radios[(i*7)%len(ch.radios)].Transmit(powerW, 512*8, 100*sim.Microsecond, nil)
		sched.RunAll()
	}
	return log
}

// TestGridNilEpochMatchesUncached pins the epoch-less fallback: a
// channel with no position-epoch source (unknown mobility) rebuilds the
// scratch row per frame through the grid, and must deliver byte-for-
// byte what the uncached, grid-less reference walk delivers.
func TestGridNilEpochMatchesUncached(t *testing.T) {
	var gridCh, refCh *Channel
	gridded := buildRecorded(t, func(ch *Channel) { gridCh = ch }) // nil epoch, grid on
	reference := buildRecorded(t, func(ch *Channel) { refCh = ch; UseReferenceWalk(ch) })
	if len(gridded) == 0 {
		t.Fatal("no deliveries recorded, the comparison proves nothing")
	}
	if !GridAssigned(gridCh) || GridAssigned(refCh) {
		t.Fatalf("grid assigned = %v (gridded), %v (reference); want true, false",
			GridAssigned(gridCh), GridAssigned(refCh))
	}
	if len(gridded) != len(reference) {
		t.Fatalf("gridded run logged %d deliveries, reference %d", len(gridded), len(reference))
	}
	for i := range gridded {
		if gridded[i] != reference[i] {
			t.Fatalf("delivery %d diverges:\n  gridded   %s\n  reference %s", i, gridded[i], reference[i])
		}
	}
}

// rxCountHandler tallies every RadioRx delivery — clean or errored —
// so sensed-but-undecodable frames (row membership at the carrier-sense
// floor) count too.
type rxCountHandler struct{ rxs int }

func (h *rxCountHandler) RadioRxBegin(*Transmission, float64)  {}
func (h *rxCountHandler) RadioRx(*Transmission, float64, bool) { h.rxs++ }
func (h *rxCountHandler) RadioCarrierBusy()                    {}
func (h *rxCountHandler) RadioCarrierIdle()                    {}
func (h *rxCountHandler) RadioTxDone(*Transmission)            {}

// TestGridSkinCoversBoundedMotion pins the Verlet-skin correctness
// argument: under a SetMaxSpeed bound the grid is NOT reassigned while
// the drift stays within the skin, yet a radio that moved from outside
// the cutoff to inside it must still be found — the enumeration disk is
// inflated by the drift bound.
func TestGridSkinCoversBoundedMotion(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	ch.SetMaxSpeed(10)

	cutoff := ch.model.(Ranger).RangeForTxPower(0.2818, ch.deliverFloorW)
	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &rxCountHandler{})
	pos := geom.Point{X: cutoff + 5} // just out of sensing range
	hb := &rxCountHandler{}
	b := ch.AttachRadio(1, func() geom.Point { return pos }, hb)

	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 0 {
		t.Fatalf("out-of-range radio heard %d deliveries, want 0", hb.rxs)
	}
	assignedCell := ch.grid.keys[b.idx]
	if ch.grid.skin <= 0 {
		t.Fatal("grid not built")
	}

	// Advance 6 simulated seconds and move b 60 m inward — within the
	// 10 m/s promise and within the skin, so cells must NOT be
	// reassigned.
	sched.At(sched.Now().Add(sim.DurationOf(6)), func() {})
	sched.RunAll()
	move := 60.0
	if move >= ch.grid.skin {
		t.Fatalf("test needs move %.0f < skin %.1f", move, ch.grid.skin)
	}
	pos = geom.Point{X: cutoff + 5 - move}
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 1 {
		t.Fatalf("moved-into-range radio heard %d deliveries, want 1", hb.rxs)
	}
	if got := ch.grid.keys[b.idx]; got != assignedCell {
		t.Fatalf("grid reassigned (cell %x -> %x) although drift was within the skin", assignedCell, got)
	}
}

// TestGridIncrementalReassign drives drift past the skin and checks the
// reassignment is incremental and consistent: only the moved radio
// changes cell, cell membership matches the keys table, and deliveries
// follow the new geometry.
func TestGridIncrementalReassign(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	ch.SetMaxSpeed(50)

	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
	pos := geom.Point{X: 5000} // far out of range
	hb := &countingHandler{}
	ch.AttachRadio(1, func() geom.Point { return pos }, hb)
	fixed := geom.Point{X: 100}
	hc := &countingHandler{}
	ch.AttachRadio(2, func() geom.Point { return fixed }, hc)

	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 0 || hc.begins != 1 {
		t.Fatalf("first frame: b=%d (want 0), c=%d (want 1)", hb.begins, hc.begins)
	}
	cellC := ch.grid.keys[2]

	// 100 s at 50 m/s bounds the drift at 5000 m — far past the skin,
	// so the next query reassigns. b teleports into range (within the
	// bound), c stays put.
	sched.At(sched.Now().Add(sim.DurationOf(100)), func() {})
	sched.RunAll()
	pos = geom.Point{X: 200}
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("after move: b heard %d begins, want 1", hb.begins)
	}
	if ch.grid.keys[2] != cellC {
		t.Fatal("unmoved radio changed cell during incremental reassignment")
	}
	if got := ch.grid.keys[1]; got != ch.grid.cellOf(geom.Point{X: 200}) {
		t.Fatalf("moved radio's cell %x does not match its position's cell", got)
	}
	// Cell membership must agree with the keys table exactly.
	total := 0
	for key, members := range ch.grid.cells {
		for _, j := range members {
			total++
			if ch.grid.keys[j] != key {
				t.Fatalf("radio %d listed in cell %x but keyed to %x", j, key, ch.grid.keys[j])
			}
		}
	}
	if total != len(ch.radios) {
		t.Fatalf("grid holds %d radios, channel has %d", total, len(ch.radios))
	}
}

// TestGridCellGrowth checks the index resizes when a power level with a
// larger range than any seen before shows up: deliveries stay correct
// across the rebuild.
func TestGridCellGrowth(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	ch.SetPositionEpoch(func() uint64 { return 0 })

	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &countingHandler{})
	hb := &countingHandler{}
	ch.AttachRadio(1, func() geom.Point { return geom.Point{X: 200} }, hb)

	// 3.45 mW carrier-senses to ~184 m: radio b (200 m away) stays
	// silent.
	a.Transmit(3.45e-3, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 0 {
		t.Fatalf("low dial: b heard %d begins, want 0", hb.begins)
	}
	smallCell := ch.grid.cell

	// Max power decodes past 200 m and needs bigger cells.
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 {
		t.Fatalf("max dial: b heard %d begins, want 1", hb.begins)
	}
	if ch.grid.cell <= smallCell {
		t.Fatalf("grid cell %.1f did not grow past %.1f for the larger cutoff", ch.grid.cell, smallCell)
	}
}

// TestRowForSortedInsert pins the sorted-slice power-level cache: rows
// inserted in arbitrary order end up sorted, repeat lookups hit, and
// each level keeps its own row.
func TestRowForSortedInsert(t *testing.T) {
	sched := sim.NewScheduler()
	par := DefaultParams()
	ch := NewChannel(sched, NewTwoRayGround(par), par)
	r := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, benchHandler{})

	order := []float64{30.53e-3, 1e-3, 281.8e-3, 3.45e-3, 90.8e-3}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if cached {
			t.Fatalf("level %g reported cached on first lookup", p)
		}
		row.epoch = uint64(i + 1) // tag to verify identity on re-lookup
	}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if !cached {
			t.Fatalf("level %g missed after insert", p)
		}
		if row.epoch != uint64(i+1) {
			t.Fatalf("level %g returned another level's row (tag %d, want %d)", p, row.epoch, i+1)
		}
	}
	for i := 1; i < len(r.rows); i++ {
		if r.rows[i-1].powerW >= r.rows[i].powerW {
			t.Fatalf("rows not sorted by power: %v vs %v", r.rows[i-1].powerW, r.rows[i].powerW)
		}
	}
	if len(r.rows) != len(order) {
		t.Fatalf("expected %d cached rows, have %d", len(order), len(r.rows))
	}
}
