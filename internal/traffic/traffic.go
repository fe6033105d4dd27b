// Package traffic implements the simulator's workload models. The
// paper evaluates constant bit rate (CBR) sources over UDP with fixed
// 512-byte packets; this package keeps that model as the default and
// adds Poisson arrivals, exponential on-off bursts, Pareto heavy-tailed
// bursts and request-response exchanges. One Source type paces every
// model, each by its own rule, and all are parameterized by the same
// mean rate so results stay comparable across models.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Sender is where a source injects packets; aodv.Router satisfies it.
type Sender interface {
	Send(np *packet.NetPacket)
}

// Model names a workload model in configs and campaign axes.
type Model string

// The built-in workload models.
const (
	// CBRModel is the paper's workload: fixed-size packets at a
	// constant rate.
	CBRModel Model = "cbr"
	// PoissonModel draws exponential inter-packet gaps (memoryless
	// arrivals at the same mean rate).
	PoissonModel Model = "poisson"
	// OnOffModel alternates exponential ON bursts (packets at a peak
	// rate) with exponential OFF silences.
	OnOffModel Model = "onoff"
	// ParetoModel alternates Pareto-distributed ON/OFF periods — the
	// heavy-tailed bursts of self-similar traffic.
	ParetoModel Model = "pareto"
	// ReqRespModel sends Poisson requests and, on each end-to-end
	// delivery, a response packet back from the destination.
	ReqRespModel Model = "reqresp"
)

// Models lists the built-in workload models in a stable order.
func Models() []Model {
	return []Model{CBRModel, PoissonModel, OnOffModel, ParetoModel, ReqRespModel}
}

// ParseModel resolves a model name from config. The empty string is the
// CBR default, so untouched configs keep the paper's workload.
func ParseModel(name string) (Model, error) {
	if name == "" {
		return CBRModel, nil
	}
	if m := Model(name); slices.Contains(Models(), m) {
		return m, nil
	}
	return "", fmt.Errorf("traffic: unknown model %q (have %v)", name, Models())
}

// burstPackets is the mean number of packets per on-off ON burst.
const burstPackets = 8

// Params parameterizes NewSource. Interval is the mean inter-packet
// gap; every model offers Bytes*8/Interval bits per second on average.
// NewSource fills no defaults: each field a model reads must be set.
type Params struct {
	Sched  *sim.Scheduler
	Sender Sender

	// FlowID tags the flow (used as the PCMAC session ID).
	FlowID uint32
	// Src and Dst are the end-to-end addresses.
	Src, Dst packet.NodeID
	// Bytes is the payload size (512 in the paper).
	Bytes    int
	Interval sim.Duration

	// RNG drives the stochastic models (every model but cbr). Each
	// source must own its RNG so flows decorrelate and schedules stay
	// reproducible.
	RNG *rand.Rand
	// BurstFactor is the onoff and pareto peak-to-mean rate ratio (> 1).
	BurstFactor float64
	// ParetoShape is the pareto model's tail index alpha (> 1).
	ParetoShape float64

	// RespSender, RespFlowID and RespBytes configure the reqresp
	// model's response leg: responses of RespBytes from Dst back to Src,
	// injected into RespSender (the destination's network layer) and
	// tagged RespFlowID so both directions are measured independently.
	RespSender Sender
	RespFlowID uint32
	RespBytes  int

	// NextUID mints packet IDs (nil numbers every packet 0).
	NextUID func() uint64
	// OnGenerate, if set, observes every generated packet, responses
	// included (the stats collector hooks in here).
	OnGenerate func(np *packet.NetPacket)
}

// Source generates one flow's packets. After each packet it re-arms
// its timer by its model's pacing rule: cbr waits the fixed Interval;
// poisson and reqresp wait an exponential draw of mean Interval; onoff
// and pareto wait the peak gap Interval/BurstFactor inside a burst,
// and at a burst's end stay silent for a drawn OFF period before a
// drawn ON period opens the next. A source is deterministic given its
// RNG seed: the same seed yields the same packet schedule, which the
// campaign runner's reproducibility contract depends on.
type Source struct {
	Params

	model Model
	timer *sim.Timer
	seq   uint32
	until sim.Time

	// The onoff and pareto burst state: packet spacing inside a burst,
	// the ON/OFF period means, and the current burst's end.
	peakGap, meanOn, meanOff sim.Duration
	onUntil                  sim.Time

	// The reqresp response leg's sequence and the request seqs already
	// answered.
	respSeq  uint32
	answered map[uint32]bool
}

// NewSource builds a source of model m. It rejects a payload,
// interval, RNG, burst factor, Pareto shape or response leg the model
// cannot run with.
func NewSource(m Model, p Params) (*Source, error) {
	m, err := ParseModel(string(m))
	if err != nil {
		return nil, err
	}
	s := &Source{Params: p, model: m}
	bursty, reqresp := s.bursty(), m == ReqRespModel
	switch {
	case p.Bytes <= 0:
		return nil, fmt.Errorf("traffic: non-positive payload %d", p.Bytes)
	case p.Interval <= 0:
		return nil, fmt.Errorf("traffic: non-positive mean interval %d", p.Interval)
	case m != CBRModel && p.RNG == nil:
		return nil, fmt.Errorf("traffic: model %q needs an RNG", m)
	case bursty && !(p.BurstFactor > 1):
		return nil, fmt.Errorf("traffic: burst factor %g must exceed 1", p.BurstFactor)
	case m == ParetoModel && !(p.ParetoShape > 1):
		return nil, fmt.Errorf("traffic: pareto shape %g must exceed 1 (finite mean)", p.ParetoShape)
	case reqresp && p.RespSender == nil:
		return nil, fmt.Errorf("traffic: reqresp needs a response sender")
	case reqresp && (p.RespFlowID == 0 || p.RespFlowID == p.FlowID):
		return nil, fmt.Errorf("traffic: reqresp needs a distinct response flow ID (got %d)", p.RespFlowID)
	case reqresp && p.RespBytes <= 0:
		return nil, fmt.Errorf("traffic: non-positive response payload %d", p.RespBytes)
	}
	if s.NextUID == nil {
		s.NextUID = func() uint64 { return 0 }
	}
	if bursty {
		s.peakGap = max(sim.DurationOf(p.Interval.Seconds()/p.BurstFactor), 1)
		// A burst of duration L emits ceil(L/peakGap) packets (one
		// opens the burst), so a cycle carries meanOn/peakGap + ~0.5
		// packets, not meanOn/peakGap. The cycle is sized for that
		// count; without the half packet, on-off sources would offer
		// ~5% over nominal and skew cross-model comparisons at the
		// "same" load.
		s.meanOn = burstPackets * s.peakGap
		s.meanOff = sim.DurationOf((burstPackets+0.5)*p.Interval.Seconds() - s.meanOn.Seconds())
	}
	if reqresp {
		s.answered = make(map[uint32]bool)
	}
	s.timer = sim.NewTimer(p.Sched, s.tick)
	return s, nil
}

// Start begins generation at time start (opening an ON burst for the
// onoff and pareto models) and stops it at until. A small start jitter
// (supplied by the caller via start) decorrelates flows.
func (s *Source) Start(start, until sim.Time) {
	s.until = until
	if s.bursty() {
		s.onUntil = start.Add(s.draw(s.meanOn))
	}
	s.timer.StartAt(start)
}

// Stop halts generation.
func (s *Source) Stop() { s.timer.Stop() }

// Delivered reacts to the end-to-end delivery of one of this flow's
// packets. A reqresp source answers the request with a response
// injected at the destination, created at delivery time so its
// measured delay is the return trip alone. Each request answers at
// most once: MAC-level retransmission races can deliver the same
// packet twice, and a duplicate must not inflate the response stream.
// Other models ignore deliveries.
func (s *Source) Delivered(np *packet.NetPacket, now sim.Time) {
	if s.model != ReqRespModel || s.answered[np.Seq] {
		return
	}
	s.answered[np.Seq] = true
	s.respSeq++
	s.send(s.RespSender, s.Dst, s.Src, s.RespBytes, s.RespFlowID, s.respSeq, now)
}

func (s *Source) tick() {
	now := s.Sched.Now()
	if now >= s.until {
		return
	}
	if s.bursty() && now >= s.onUntil {
		// Burst over: stay silent through an OFF period, then open the
		// next burst.
		restart := now.Add(s.draw(s.meanOff))
		s.onUntil = restart.Add(s.draw(s.meanOn))
		s.timer.StartAt(restart)
		return
	}
	s.seq++
	s.send(s.Sender, s.Src, s.Dst, s.Bytes, s.FlowID, s.seq, now)
	switch s.model {
	case CBRModel:
		s.timer.Start(s.Interval)
	case OnOffModel, ParetoModel:
		s.timer.Start(s.peakGap)
	default: // poisson, reqresp
		s.timer.Start(s.draw(s.Interval))
	}
}

// bursty reports whether the model alternates ON bursts with OFF
// silences.
func (s *Source) bursty() bool { return s.model == OnOffModel || s.model == ParetoModel }

// send mints one packet stamped now, shows it to OnGenerate and
// injects it into via.
func (s *Source) send(via Sender, src, dst packet.NodeID, bytes int, flowID, seq uint32, now sim.Time) {
	np := &packet.NetPacket{
		UID:       s.NextUID(),
		Proto:     packet.ProtoUDP,
		Src:       src,
		Dst:       dst,
		TTL:       32,
		Bytes:     bytes,
		FlowID:    flowID,
		Seq:       seq,
		CreatedAt: now,
	}
	if s.OnGenerate != nil {
		s.OnGenerate(np)
	}
	via.Send(np)
}

// draw returns a random duration of the given mean, floored at one
// tick so zero-length periods cannot stall the event loop. The pareto
// model draws Pareto(shape): scale = mean*(shape-1)/shape,
// X = scale/U^(1/shape). Every other model draws an exponential.
func (s *Source) draw(mean sim.Duration) sim.Duration {
	var d sim.Duration
	if s.model == ParetoModel {
		u := s.RNG.Float64()
		for u == 0 {
			u = s.RNG.Float64()
		}
		scale := mean.Seconds() * (s.ParetoShape - 1) / s.ParetoShape
		d = sim.DurationOf(scale / math.Pow(u, 1/s.ParetoShape))
	} else {
		d = sim.DurationOf(s.RNG.ExpFloat64() * mean.Seconds())
	}
	return max(d, 1)
}

// IntervalFor returns the packet interval that makes one flow of the
// given payload contribute rateBps to the offered load.
func IntervalFor(bytes int, rateBps float64) sim.Duration {
	if rateBps <= 0 {
		panic(fmt.Sprintf("traffic: non-positive rate %g", rateBps))
	}
	return sim.DurationOf(float64(bytes*8) / rateBps)
}

// PickPairs chooses n distinct (src, dst) pairs among nodes [0, count),
// with src != dst and no duplicate pairs, mirroring the paper's "10
// source and destination pairs". Asking for more pairs than the
// count*(count-1) ordered pairs that exist panics; a dense request (more
// than half the possible pairs) switches from rejection sampling to an
// exhaustive shuffle so small networks terminate instead of spinning.
func PickPairs(count, n int, rng *rand.Rand) [][2]packet.NodeID {
	if count < 2 {
		panic("traffic: need at least two nodes for a flow")
	}
	maxPairs := count * (count - 1)
	if n > maxPairs {
		panic(fmt.Sprintf("traffic: %d flows exceed the %d ordered pairs of %d nodes", n, maxPairs, count))
	}
	if 2*n > maxPairs {
		all := make([][2]packet.NodeID, 0, maxPairs)
		for a := 0; a < count; a++ {
			for b := 0; b < count; b++ {
				if a != b {
					all = append(all, [2]packet.NodeID{packet.NodeID(a), packet.NodeID(b)})
				}
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:n]
	}
	seen := make(map[[2]packet.NodeID]bool, n)
	out := make([][2]packet.NodeID, 0, n)
	for len(out) < n {
		a := packet.NodeID(rng.Intn(count))
		b := packet.NodeID(rng.Intn(count))
		if a == b {
			continue
		}
		p := [2]packet.NodeID{a, b}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
