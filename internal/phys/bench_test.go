package phys

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/sim"
)

// benchHandler is a no-op MAC stand-in so benchmarks measure only the
// physical layer.
type benchHandler struct{}

func (benchHandler) RadioRxBegin(*Transmission, float64)  {}
func (benchHandler) RadioRx(*Transmission, float64, bool) {}
func (benchHandler) RadioCarrierBusy()                    {}
func (benchHandler) RadioCarrierIdle()                    {}
func (benchHandler) RadioTxDone(*Transmission)            {}

// benchGrid attaches n radios on a square grid sized so that a maximal
// power frame reaches a realistic fraction of the network, mirroring the
// paper's 50-nodes-on-1000x1000m density.
func benchGrid(sched *sim.Scheduler, ch *Channel, n int) []*Radio {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	// Keep the paper's node density (~one node per 20000 m^2).
	spacing := 1000.0 / math.Sqrt(50) * math.Sqrt(float64(n)) / float64(side)
	radios := make([]*Radio, n)
	for i := 0; i < n; i++ {
		p := geom.Point{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
		radios[i] = ch.AttachRadio(i, func() geom.Point { return p }, benchHandler{})
	}
	return radios
}

// BenchmarkChannelTransmit measures the full cost of putting one frame
// on the air — neighbor selection, received-power evaluation and arrival
// event scheduling — plus draining the arrival events, from the paper's
// 50-node scale up to the 1000-node regime the spatial index targets,
// under a pinned promise, a motion bound and the reference walk.
func BenchmarkChannelTransmit(b *testing.B) {
	variants := []struct {
		name  string
		setup func(ch *Channel)
	}{
		// static: positions pinned (SetMaxSpeed(0)) — the link rows are
		// built once and every transmit walks the cached slice.
		{"static", func(ch *Channel) { ch.SetMaxSpeed(0) }},
		// mobile: a waypoint-speed motion bound — the transmitter's row
		// is rebuilt every frame from the spatial index's candidate
		// cells (the scenario wiring for moving nodes).
		{"mobile", func(ch *Channel) { ch.SetMaxSpeed(3) }},
		// reference: the full propagation model against every radio,
		// every frame, with no row cache, cutoff or spatial index
		// (UseReferenceWalk; the O(N)-vs-O(neighbors) baseline).
		{"reference", UseReferenceWalk},
	}
	for _, n := range []int{10, 50, 200, 1000} {
		for _, v := range variants {
			b.Run(fmt.Sprintf("radios=%d/%s", n, v.name), func(b *testing.B) {
				sched := sim.NewScheduler()
				ch := NewChannel(sched, NewTwoRayGround())
				radios := benchGrid(sched, ch, n)
				v.setup(ch)
				tx := radios[0]
				const dur = 100 * sim.Microsecond
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx.Transmit(0.2818, 512*8, dur, nil)
					sched.RunAll()
				}
			})
		}
	}
	// Power-controlled data frames at the 1000-node scale: a
	// power-controlling MAC sends its data at the smallest sufficient
	// dial (here 3.45 mW, the paper's third level, reaching ~2 lattice
	// neighbors), so neighbor selection — not arrival delivery —
	// dominates the frame cost. One max-power frame first sizes the
	// grid cells exactly as a real run's RTS would.
	for _, v := range variants {
		b.Run(fmt.Sprintf("radios=1000/%s-data", v.name), func(b *testing.B) {
			sched := sim.NewScheduler()
			ch := NewChannel(sched, NewTwoRayGround())
			radios := benchGrid(sched, ch, 1000)
			v.setup(ch)
			tx := radios[0]
			const dur = 100 * sim.Microsecond
			tx.Transmit(0.2818, 512*8, dur, nil)
			sched.RunAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Transmit(3.45e-3, 512*8, dur, nil)
				sched.RunAll()
			}
		})
	}
}

// BenchmarkLinkRowLookup measures Radio.rowFor over the paper's ten
// discrete power levels — the per-frame cache lookup that replaced the
// float-keyed map (hash + bucket probe per transmit) with a sorted
// slice scan.
func BenchmarkLinkRowLookup(b *testing.B) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	r := ch.AttachRadio(0, func() geom.Point { return geom.Point{} }, benchHandler{})
	levels := power.Table()
	for _, p := range levels {
		r.rowFor(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.rowFor(levels[i%len(levels)]); !ok {
			b.Fatal("lookup missed a cached level")
		}
	}
}

// BenchmarkRadioArrivals measures the begin/end arrival bookkeeping on a
// single radio with several overlapping frames in flight — the
// interference-tracking inner loop.
func BenchmarkRadioArrivals(b *testing.B) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, NewTwoRayGround())
	radios := benchGrid(sched, ch, 9)
	rx := radios[4] // grid centre hears everyone
	txs := make([]*Transmission, 0, 8)
	for i, r := range radios {
		if r == rx {
			continue
		}
		txs = append(txs, &Transmission{
			Seq: uint64(i), From: r, PowerW: 0.2818,
			Bits: 4096, Duration: 100 * sim.Microsecond,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tx := range txs {
			rx.beginArrival(tx, 1e-9)
		}
		for j := len(txs) - 1; j >= 0; j-- {
			rx.endArrival(txs[j])
		}
	}
}
