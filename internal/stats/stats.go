// Package stats computes the paper's evaluation metrics: aggregate
// network throughput (kbps of data payload arriving at destinations)
// and average end-to-end delay (ms), plus packet delivery ratio, Jain
// fairness across flows, and energy bookkeeping.
package stats

import (
	"math"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
)

// FlowStats aggregates one traffic flow.
type FlowStats struct {
	FlowID    uint32
	Sent      uint64
	Delivered uint64
	Bytes     uint64
	DelaySum  sim.Duration

	// Streaming latency-distribution snapshots, filled by
	// Collector.Flows: the 95th-percentile delay (a P² estimate) and
	// jitter (the mean absolute difference between consecutive packets'
	// delays), in milliseconds.
	DelayP95Ms float64
	JitterMs   float64
}

// PDR returns the flow's packet delivery ratio.
func (f FlowStats) PDR() float64 {
	if f.Sent == 0 {
		return 0
	}
	return float64(f.Delivered) / float64(f.Sent)
}

// MeanDelayMs returns the flow's mean end-to-end delay in milliseconds.
func (f FlowStats) MeanDelayMs() float64 {
	if f.Delivered == 0 {
		return 0
	}
	return f.DelaySum.Milliseconds() / float64(f.Delivered)
}

// Collector accumulates end-to-end metrics over a measurement window.
// Packets created before Warmup are counted separately and excluded
// from throughput/delay, matching the usual practice of discarding the
// route-establishment transient.
type Collector struct {
	// Warmup is the measurement window start.
	Warmup sim.Time
	// End is the measurement window end (set before reading metrics).
	End sim.Time

	flows map[uint32]*flowAcc

	// WarmupSent/WarmupDelivered count pre-window traffic.
	WarmupSent, WarmupDelivered uint64

	// Duplicates counts deliveries of a (flow, seq) already seen.
	Duplicates uint64

	seen map[flowSeq]bool

	// Network-wide delay digests over every in-window delivery.
	p50, p95, p99 Quantile

	// Alive-node tracking for battery/lifetime scenarios: population is
	// the terminal count, deaths the battery-depletion steps in time
	// order.
	population int
	deaths     []AliveStep
}

// AliveStep is one point of the alive-node timeline: at T the number of
// alive terminals dropped to Alive.
type AliveStep struct {
	T     sim.Time
	Alive int
}

type flowSeq struct {
	flow uint32
	seq  uint32
}

// flowAcc is the collector's mutable per-flow record: the exported
// counters plus the streaming latency state behind the FlowStats
// snapshot fields.
type flowAcc struct {
	FlowStats
	p95       Quantile
	lastDelay sim.Duration
	jitterSum sim.Duration
	jitterN   uint64
}

// jitterMs returns the flow's mean absolute consecutive-delay
// difference in milliseconds.
func (f *flowAcc) jitterMs() float64 {
	if f.jitterN == 0 {
		return 0
	}
	return f.jitterSum.Milliseconds() / float64(f.jitterN)
}

// snapshot freezes the flow's stats, filling the derived latency
// fields.
func (f *flowAcc) snapshot() FlowStats {
	s := f.FlowStats
	s.DelayP95Ms = f.p95.Value()
	s.JitterMs = f.jitterMs()
	return s
}

// NewCollector creates a collector with the given warmup boundary.
func NewCollector(warmup sim.Time) *Collector {
	return &Collector{
		Warmup: warmup,
		flows:  make(map[uint32]*flowAcc),
		seen:   make(map[flowSeq]bool),
		p50:    NewQuantile(0.50),
		p95:    NewQuantile(0.95),
		p99:    NewQuantile(0.99),
	}
}

func (c *Collector) flow(id uint32) *flowAcc {
	f, ok := c.flows[id]
	if !ok {
		f = &flowAcc{
			FlowStats: FlowStats{FlowID: id},
			p95:       NewQuantile(0.95),
		}
		c.flows[id] = f
	}
	return f
}

// SetPopulation records the terminal count, anchoring the alive-node
// timeline.
func (c *Collector) SetPopulation(n int) { c.population = n }

// NodeDied records one battery death at time now. Calls must arrive in
// simulation-time order (they do: the accountants' death timers fire on
// the single event loop).
func (c *Collector) NodeDied(now sim.Time) {
	c.deaths = append(c.deaths, AliveStep{T: now, Alive: c.population - len(c.deaths) - 1})
}

// DeadNodes returns how many terminals died.
func (c *Collector) DeadNodes() int { return len(c.deaths) }

// FirstDeathS returns the time of the first battery death in seconds,
// or 0 when every node survived — the network-lifetime headline metric.
func (c *Collector) FirstDeathS() float64 {
	if len(c.deaths) == 0 {
		return 0
	}
	return c.deaths[0].T.Seconds()
}

// AliveTimeline returns the alive-node step curve: the initial
// population at time zero followed by one step per death. It is never
// empty once SetPopulation was called.
func (c *Collector) AliveTimeline() []AliveStep {
	out := make([]AliveStep, 0, len(c.deaths)+1)
	out = append(out, AliveStep{T: 0, Alive: c.population})
	return append(out, c.deaths...)
}

// PacketSent records an application-layer injection.
func (c *Collector) PacketSent(np *packet.NetPacket) {
	if np.CreatedAt < c.Warmup {
		c.WarmupSent++
		return
	}
	c.flow(np.FlowID).Sent++
}

// PacketDelivered records an end-to-end delivery at time now.
func (c *Collector) PacketDelivered(np *packet.NetPacket, now sim.Time) {
	if np.CreatedAt < c.Warmup {
		c.WarmupDelivered++
		return
	}
	key := flowSeq{np.FlowID, np.Seq}
	if c.seen[key] {
		c.Duplicates++
		return
	}
	c.seen[key] = true
	f := c.flow(np.FlowID)
	d := now.Sub(np.CreatedAt)
	f.Delivered++
	f.Bytes += uint64(np.Bytes)
	f.DelaySum += d

	ms := d.Milliseconds()
	f.p95.Add(ms)
	c.p50.Add(ms)
	c.p95.Add(ms)
	c.p99.Add(ms)
	if f.Delivered > 1 {
		diff := d - f.lastDelay
		if diff < 0 {
			diff = -diff
		}
		f.jitterSum += diff
		f.jitterN++
	}
	f.lastDelay = d
}

// Flows returns per-flow stats sorted by flow ID.
func (c *Collector) Flows() []FlowStats {
	out := make([]FlowStats, 0, len(c.flows))
	for _, f := range c.flows {
		out = append(out, f.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// TotalSent returns in-window injected packets.
func (c *Collector) TotalSent() uint64 {
	var n uint64
	for _, f := range c.flows {
		n += f.Sent
	}
	return n
}

// TotalDelivered returns in-window end-to-end deliveries.
func (c *Collector) TotalDelivered() uint64 {
	var n uint64
	for _, f := range c.flows {
		n += f.Delivered
	}
	return n
}

// ThroughputKbps returns the paper's aggregate network throughput:
// delivered payload bits per second of measurement window, in kbps.
func (c *Collector) ThroughputKbps() float64 {
	window := c.End.Sub(c.Warmup).Seconds()
	if window <= 0 {
		return 0
	}
	var bits float64
	for _, f := range c.flows {
		bits += float64(f.Bytes) * 8
	}
	return bits / window / 1e3
}

// MeanDelayMs returns the paper's average end-to-end delay across all
// delivered packets, in milliseconds.
func (c *Collector) MeanDelayMs() float64 {
	var sum sim.Duration
	var n uint64
	for _, f := range c.flows {
		sum += f.DelaySum
		n += f.Delivered
	}
	if n == 0 {
		return 0
	}
	return sum.Milliseconds() / float64(n)
}

// DelayP50Ms returns the network-wide median end-to-end delay (P²
// estimate over every in-window delivery), in milliseconds.
func (c *Collector) DelayP50Ms() float64 { return c.p50.Value() }

// DelayP95Ms returns the network-wide 95th-percentile delay in
// milliseconds.
func (c *Collector) DelayP95Ms() float64 { return c.p95.Value() }

// DelayP99Ms returns the network-wide 99th-percentile delay in
// milliseconds.
func (c *Collector) DelayP99Ms() float64 { return c.p99.Value() }

// JitterMs returns the delivery-weighted mean of per-flow jitter (mean
// absolute consecutive-delay difference), in milliseconds. Jitter is
// computed within each flow — consecutive packets of different flows
// never compare.
func (c *Collector) JitterMs() float64 {
	var sum sim.Duration
	var n uint64
	for _, f := range c.flows {
		sum += f.jitterSum
		n += f.jitterN
	}
	if n == 0 {
		return 0
	}
	return sum.Milliseconds() / float64(n)
}

// PDR returns the aggregate in-window packet delivery ratio.
func (c *Collector) PDR() float64 {
	sent := c.TotalSent()
	if sent == 0 {
		return 0
	}
	return float64(c.TotalDelivered()) / float64(sent)
}

// JainFairness returns Jain's fairness index over per-flow delivered
// byte counts: (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair.
func (c *Collector) JainFairness() float64 {
	xs := make([]float64, 0, len(c.flows))
	for _, f := range c.flows {
		xs = append(xs, float64(f.Bytes))
	}
	return Jain(xs)
}

// Jain returns Jain's fairness index (sum x)^2 / (n * sum x^2) over xs;
// 1.0 is perfectly fair, 0 the degenerate empty/all-zero case. The
// energy subsystem uses it over per-node residual (or consumed) energy.
func Jain(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if len(xs) == 0 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Series is a simple numeric aggregation helper for multi-seed runs.
type Series struct {
	vals []float64
}

// Append adds a value.
func (s *Series) Append(v float64) { s.vals = append(s.vals, v) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	var t float64
	for _, v := range s.vals {
		t += v
	}
	return t / float64(len(s.vals))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Series) StdDev() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest value (0 for an empty series).
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value (0 for an empty series).
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// N returns the sample count.
func (s *Series) N() int { return len(s.vals) }
