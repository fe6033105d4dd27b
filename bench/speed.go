package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// The host these numbers come from is a shared VM whose memory system
// other tenants load: the same op on the same input takes 1.4 s in one
// minute and 2.2 s a few minutes later, while a pure ALU loop stays
// within 5%. A median over one run cannot remove a slow spell that
// outlasts the run, so each op's host times are also reported rescaled
// by the speed of a fixed probe, run in a child process of its own right
// before and right after the op's child. The probe is the benchmark's
// own code (an event heap over a pool of records, as a discrete-event
// kernel keeps), so it is the same on both sides of a comparison and
// changes to the simulator cannot move it.
//
// Of the probes tried over 13 minutes of alternating ops (heaps with and
// without allocation, pointer chasing over 4 and 32 MB, an ALU loop,
// each in the parent and in a fresh child), this one tracked the
// simulator best: the median op time over windows of 10 ops varied with
// a CV of 14-16% raw and 2.7% divided by this probe's time.

const (
	// probePool is the number of records the probe's heap indexes.
	probePool = 1 << 20
	// probeEvents is one probe sample's work, about 30 ms at nominal speed.
	probeEvents = 100_000
	// probeSamples is how many samples one reading takes the median of.
	probeSamples = 5
	// probeNominalS is one probe sample's time at speed 1: its median on
	// the 2-vCPU host of results/ in a quiet spell. Calibrated times read
	// as seconds on that host at that speed.
	probeNominalS = 0.030
)

// speedProbe measures the host's current speed relative to nominal.
type speedProbe struct {
	// last is the latest reading, which is also the next op's reading
	// before it, since ops run back to back.
	last float64
}

// around runs f and returns the host speed over it: the nominal probe
// time over the mean of the readings just before and just after. Below
// 1 the host ran slower than nominal.
func (p *speedProbe) around(f func()) (float64, error) {
	if p.last == 0 {
		r, err := spawnProbe()
		if err != nil {
			return 0, err
		}
		p.last = r
	}
	before := p.last
	f()
	r, err := spawnProbe()
	if err != nil {
		p.last = 0
		return 0, err
	}
	p.last = r
	return probeNominalS / ((before + r) / 2), nil
}

// spawnProbe takes one reading in a fresh child process, so the probe
// starts from the same state as an op does.
func spawnProbe() (float64, error) {
	res, _, err := spawn(opRequest{Probe: true})
	if err == nil && !(res.ProbeS > 0) {
		err = fmt.Errorf("probe child read %g s", res.ProbeS)
	}
	return res.ProbeS, err
}

// probeReading is the median of probeSamples probe samples, in seconds.
func probeReading() float64 {
	q := newProbeQueue()
	xs := make([]float64, probeSamples)
	for i := range xs {
		t := time.Now()
		q.sample()
		xs[i] = time.Since(t).Seconds()
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// probeQueue is a binary min-heap of record indices keyed by time, over
// a pool of records with packet-sized payloads.
type probeQueue struct {
	at      []float64
	payload [][4]uint64
	heap    []int32
}

func newProbeQueue() *probeQueue {
	return &probeQueue{at: make([]float64, probePool), payload: make([][4]uint64, probePool)}
}

// sample runs probeEvents events of a fixed pseudo-random schedule:
// each pops the earliest record and schedules a random one after it.
func (q *probeQueue) sample() {
	r := rand.New(rand.NewSource(1))
	q.heap = q.heap[:0]
	for i := 0; i < 20_000; i++ {
		k := r.Int31n(probePool)
		q.at[k] = r.Float64()
		q.heap = append(q.heap, k)
		q.up(len(q.heap) - 1)
	}
	for i := 0; i < probeEvents; i++ {
		top := q.heap[0]
		q.payload[top][0]++
		k := r.Int31n(probePool)
		q.at[k] = q.at[top] + r.ExpFloat64()
		q.payload[k][1] += q.payload[top][0]
		q.heap[0] = k
		q.down(0)
	}
}

func (q *probeQueue) less(i, j int) bool { return q.at[q.heap[i]] < q.at[q.heap[j]] }

func (q *probeQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *probeQueue) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q.heap) {
			return
		}
		if c+1 < len(q.heap) && q.less(c+1, c) {
			c++
		}
		if !q.less(c, i) {
			return
		}
		q.heap[i], q.heap[c] = q.heap[c], q.heap[i]
		i = c
	}
}
