package phys

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/sim"
)

// TestGridCandidatesProperty is the spatial-index soundness property:
// for random placements and every power level, (a) the grid's candidate
// enumeration is a superset of the delivery-cutoff disk, and (b) the
// link row built from grid candidates holds exactly the reference
// walk's (UseReferenceWalk) receivers, each with bit-identical received
// power and delay. Row order is free: the scheduler orders deliveries
// by receiver attach index.
func TestGridCandidatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		sched := sim.NewScheduler()
		ch := NewChannel(sched, NewTwoRayGround())
		ch.SetMaxSpeed(0) // pinned radios: the grid serves every build
		ref := NewChannel(sched, NewTwoRayGround())
		UseReferenceWalk(ref)
		n := 5 + rng.Intn(80)
		for i := 0; i < n; i++ {
			p := geom.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1500}
			ch.AttachRadio(i, func() geom.Point { return p }, benchHandler{})
			ref.AttachRadio(i, func() geom.Point { return p }, benchHandler{})
		}
		src := ch.radios[rng.Intn(n)]
		for _, powerW := range power.Table() {
			cutoff := ch.model.(Ranger).RangeForTxPower(powerW, CsThreshW) * (1 + 1e-9)

			// (a) superset of the cutoff disk.
			inCand := make(map[int]bool)
			for o := range ch.candidates(src.pos(), cutoff) {
				inCand[o.idx] = true
			}
			for _, o := range ch.radios {
				if src.pos().Dist2(o.pos()) <= cutoff*cutoff && !inCand[o.idx] {
					t.Fatalf("trial %d power %g: radio %d at dist %.1f inside cutoff %.1f missing from candidates",
						trial, powerW, o.id, src.pos().Dist(o.pos()), cutoff)
				}
			}

			// (b) grid row == reference row as a set, bit for bit.
			var rowG, rowR linkRow
			ch.buildRow(&rowG, src, powerW)
			ref.buildRow(&rowR, ref.radios[src.idx], powerW)
			if len(rowG.entries) != len(rowR.entries) {
				t.Fatalf("trial %d power %g: grid row has %d entries, reference %d",
					trial, powerW, len(rowG.entries), len(rowR.entries))
			}
			byIdx := make(map[int]linkEntry, len(rowR.entries))
			for _, r := range rowR.entries {
				byIdx[r.to.idx] = r
			}
			for _, g := range rowG.entries {
				r, ok := byIdx[g.to.idx]
				if !ok {
					t.Fatalf("trial %d power %g: grid row holds radio %d, absent from the reference row or listed twice",
						trial, powerW, g.to.id)
				}
				if g.prW != r.prW || g.delay != r.delay {
					t.Fatalf("trial %d power %g radio %d: grid {pr=%b delay=%d} != reference {pr=%b delay=%d}",
						trial, powerW, g.to.id, g.prW, g.delay, r.prW, r.delay)
				}
				delete(byIdx, g.to.idx)
			}
		}
		if !GridAssigned(ch) || GridAssigned(ref) {
			t.Fatalf("trial %d: grid assigned = %v (grid side), %v (reference side); want true, false",
				trial, GridAssigned(ch), GridAssigned(ref))
		}
	}
}

// orderHandler appends its radio's attach index to a shared log on
// every lock.
type orderHandler struct {
	idx int
	log *[]int
}

func (h orderHandler) RadioRxBegin(*Transmission, float64)  { *h.log = append(*h.log, h.idx) }
func (h orderHandler) RadioRx(*Transmission, float64, bool) {}
func (h orderHandler) RadioCarrierBusy()                    {}
func (h orderHandler) RadioCarrierIdle()                    {}
func (h orderHandler) RadioTxDone(*Transmission)            {}

// TestEqualDelaysArriveInAttachOrder pins the tie-break rule for one
// frame's arrivals: four receivers at the same distance from the
// sender get the same propagation delay, and whatever order the link
// row lists them in, their begin arrivals fire in ascending attach
// index. The receivers are attached so that the grid's cell-by-cell
// walk lists them out of attach order; the no-promise channel walks
// every radio in attach order.
func TestEqualDelaysArriveInAttachOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		speed float64
		grid  bool
	}{
		{"pinned", 0, true},
		{"moving", 3, true},
		{"no-promise", -1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, NewTwoRayGround())
			ch.SetMaxSpeed(tc.speed)
			var log []int
			src := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, orderHandler{0, &log})
			// Top, bottom, right, left of the sender: the grid walks
			// the bottom cell row first.
			for i, p := range []geom.Point{{Y: 100}, {Y: -100}, {X: 100}, {X: -100}} {
				ch.AttachRadio(i+1, func() geom.Point { return p }, orderHandler{i + 1, &log})
			}
			var row linkRow
			ch.buildRow(&row, src, 0.2818)
			var rowIdx []int
			for _, en := range row.entries {
				rowIdx = append(rowIdx, en.to.idx)
				if en.delay != row.entries[0].delay {
					t.Fatalf("delays differ: %d vs %d", en.delay, row.entries[0].delay)
				}
			}
			if len(rowIdx) != 4 || slices.IsSorted(rowIdx) == tc.grid || GridAssigned(ch) != tc.grid {
				t.Fatalf("row lists receivers %v with grid assigned %v; want all four, out of attach order exactly when the grid serves the row",
					rowIdx, GridAssigned(ch))
			}
			src.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
			sched.RunAll()
			if want := []int{1, 2, 3, 4}; !slices.Equal(log, want) {
				t.Fatalf("begin arrivals at radios %v, want %v", log, want)
			}
		})
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
	ch := NewChannel(sched, NewTwoRayGround())
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

// TestGridNilEpochMatchesUncached pins the two per-frame modes against
// the reference walk: a channel with no motion promise (the NewChannel
// default) walks every radio without the grid, and a channel under a
// motion bound builds each frame's scratch row through the grid. Both
// must deliver byte-for-byte what the uncached, grid-less reference
// walk delivers.
func TestGridNilEpochMatchesUncached(t *testing.T) {
	var noPromiseCh, boundedCh, refCh *Channel
	noPromise := buildRecorded(t, func(ch *Channel) { noPromiseCh = ch })
	bounded := buildRecorded(t, func(ch *Channel) { boundedCh = ch; ch.SetMaxSpeed(3) })
	reference := buildRecorded(t, func(ch *Channel) { refCh = ch; UseReferenceWalk(ch) })
	if len(reference) == 0 {
		t.Fatal("no deliveries recorded, the comparison proves nothing")
	}
	if GridAssigned(noPromiseCh) || !GridAssigned(boundedCh) || GridAssigned(refCh) {
		t.Fatalf("grid assigned = %v (no promise), %v (bounded), %v (reference); want false, true, false",
			GridAssigned(noPromiseCh), GridAssigned(boundedCh), GridAssigned(refCh))
	}
	for _, ch := range []*Channel{noPromiseCh, boundedCh, refCh} {
		if n := CachedRows(ch); n != 0 {
			t.Fatalf("a channel that is not pinned cached %d rows", n)
		}
	}
	for name, got := range map[string][]string{"no promise": noPromise, "bounded": bounded} {
		if len(got) != len(reference) {
			t.Fatalf("%s run logged %d deliveries, reference %d", name, len(got), len(reference))
		}
		for i := range got {
			if got[i] != reference[i] {
				t.Fatalf("%s delivery %d diverges:\n  got       %s\n  reference %s", name, i, got[i], reference[i])
			}
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
// argument: under a SetMaxSpeed bound the grid is NOT rebuilt while
// the drift stays within the skin, yet a radio that moved from outside
// the cutoff to inside it must still be found — the enumeration disk is
// inflated by the drift bound. The radio starts in a cell lying wholly
// outside the cutoff disk, so only the inflation can reach it.
func TestGridSkinCoversBoundedMotion(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	const speed = 10.0
	ch.SetMaxSpeed(speed)

	cutoff := ch.model.(Ranger).RangeForTxPower(0.2818, CsThreshW)
	a := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, &rxCountHandler{})
	// Just inside the corner of cell (2, 1), whose nearest point lies
	// sqrt(5)/2 cutoffs from a: out of range, and out of the plain disk.
	edge := cutoff * gridCellFrac
	pos := geom.Point{X: 2*edge + 1, Y: edge + 1}
	hb := &rxCountHandler{}
	ch.AttachRadio(1, func() geom.Point { return pos }, hb)

	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 0 {
		t.Fatalf("out-of-range radio heard %d deliveries, want 0", hb.rxs)
	}
	if ch.grid.skin <= 0 {
		t.Fatal("grid not built")
	}
	if got := ch.grid.cellOf(pos); got != packCell(2, 1) {
		t.Fatalf("radio assigned to cell %x, want (2, 1)", got)
	}
	builtAt := ch.grid.builtAt

	// Move b radially into range, 1 m inside the cutoff, and let just
	// enough time pass for the 10 m/s promise to cover the move while
	// the drift stays within the skin: the grid must NOT be rebuilt.
	dist := math.Hypot(pos.X, pos.Y)
	move := dist - (cutoff - 1)
	if move >= ch.grid.skin {
		t.Fatalf("test needs move %.1f < skin %.1f", move, ch.grid.skin)
	}
	sched.Schedule(sim.DurationOf((move+ch.grid.skin)/2/speed), func() {})
	sched.RunAll()
	scale := (cutoff - 1) / dist
	pos = geom.Point{X: pos.X * scale, Y: pos.Y * scale}
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.rxs != 1 {
		t.Fatalf("moved-into-range radio heard %d deliveries, want 1", hb.rxs)
	}
	if ch.grid.builtAt != builtAt {
		t.Fatalf("grid rebuilt at %v (built at %v) although drift was within the skin", ch.grid.builtAt, builtAt)
	}
}

// TestGridRebuildPastSkin drives drift past the skin and checks the
// grid is rebuilt from the current positions: the moved radio sits in
// its new position's cell, every radio sits in exactly one cell, and
// deliveries follow the new geometry.
func TestGridRebuildPastSkin(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
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
	firstBuild := ch.grid.builtAt

	// 100 s at 50 m/s bounds the drift at 5000 m — far past the skin,
	// so the next query rebuilds. b teleports into range (within the
	// bound), c stays put.
	sched.Schedule(sim.DurationOf(100), func() {})
	sched.RunAll()
	pos = geom.Point{X: 200}
	a.Transmit(0.2818, 1024, 100*sim.Microsecond, nil)
	sched.RunAll()
	if hb.begins != 1 || hc.begins != 2 {
		t.Fatalf("after move: b=%d (want 1), c=%d (want 2)", hb.begins, hc.begins)
	}
	if ch.grid.builtAt == firstBuild {
		t.Fatal("grid not rebuilt although drift exceeded the skin")
	}
	// Every radio sits in exactly one cell: its current position's.
	seen := make([]int, len(ch.radios))
	for key, members := range ch.grid.cells {
		for _, j := range members {
			seen[j]++
			if want := ch.grid.cellOf(ch.radios[j].pos()); key != want {
				t.Fatalf("radio %d listed in cell %x, its position is in %x", j, key, want)
			}
		}
	}
	for j, n := range seen {
		if n != 1 {
			t.Fatalf("radio %d sits in %d cells, want exactly 1", j, n)
		}
	}
}

// TestGridCellGrowth checks the index resizes when a power level with a
// larger range than any seen before shows up: deliveries stay correct
// across the rebuild.
func TestGridCellGrowth(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	ch.SetMaxSpeed(0)

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
	ch := NewChannel(sched, NewTwoRayGround())
	r := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, benchHandler{})

	order := []float64{30.53e-3, 1e-3, 281.8e-3, 3.45e-3, 90.8e-3}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if cached {
			t.Fatalf("level %g reported cached on first lookup", p)
		}
		row.attachGen = uint64(i + 1) // tag to verify identity on re-lookup
	}
	for i, p := range order {
		row, cached := r.rowFor(p)
		if !cached {
			t.Fatalf("level %g missed after insert", p)
		}
		if row.attachGen != uint64(i+1) {
			t.Fatalf("level %g returned another level's row (tag %d, want %d)", p, row.attachGen, i+1)
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
