// Package scenario builds and runs complete simulations of the paper's
// evaluation setup: N mobile nodes on a square field, CBR/UDP flows over
// AODV, one of the four MAC protocols, and the paper's two headline
// metrics (aggregate throughput and average end-to-end delay).
package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/aodv"
	"repro/internal/ctrl"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mobility"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Options selects a scenario. Zero fields take the paper's defaults
// (Section IV): 50 nodes, 1000x1000 m, 3 m/s random waypoint with 3 s
// pause, 10 CBR pairs of 512-byte packets, AODV routing.
type Options struct {
	// Scheme is the MAC protocol under test.
	Scheme mac.Scheme
	// Nodes is the terminal count (50).
	Nodes int
	// FieldW/FieldH are the field dimensions in metres (1000 x 1000).
	FieldW, FieldH float64
	// SpeedMin/SpeedMax bound node speed in m/s (3, 3).
	SpeedMin, SpeedMax float64
	// Pause is the waypoint dwell (3 s).
	Pause sim.Duration
	// Flows is the number of source-destination pairs (10).
	Flows int
	// Traffic selects the workload model by name (traffic.Models; ""
	// keeps the paper's CBR).
	Traffic string
	// BurstFactor is the on-off/pareto peak-to-mean rate ratio
	// (default 4).
	BurstFactor float64
	// ParetoShape is the pareto model's tail index (default 1.5).
	ParetoShape float64
	// ResponseBytes is the reqresp model's response payload (default
	// PacketBytes). The request rate is scaled so request + response
	// payload together match the flow's offered-load share.
	ResponseBytes int
	// Topology selects a placement generator by name (Topologies; ""
	// keeps the paper's mobile uniform-random layout). A named topology
	// pins nodes at generated positions, like Static.
	Topology string
	// OfferedLoadKbps is the aggregate offered load across all flows
	// (the paper sweeps 300..1000).
	OfferedLoadKbps float64
	// PacketBytes is the CBR payload (512).
	PacketBytes int
	// Duration is the simulated time (the paper runs 400 s; benches use
	// less).
	Duration sim.Duration
	// Warmup excludes the route-establishment transient from metrics.
	Warmup sim.Duration
	// Seed drives all randomness; same seed, same run.
	Seed int64

	// RTSThresholdBytes enables 802.11 basic access for unicast frames
	// at or below this on-air size (mac.Options.RTSThresholdBytes); 0,
	// the paper's setting, sends every unicast with RTS/CTS.
	RTSThresholdBytes int
	// HistoryExpiry (3 s), SafetyFactor (0.7) and CtrlBandwidthBps
	// (500 kbps) are the PCMAC knobs, exposed for the ablation benches.
	HistoryExpiry    sim.Duration
	SafetyFactor     float64
	CtrlBandwidthBps float64
	// DisableCtrlChannel and DisableThreeWay ablate PCMAC's two
	// mechanisms independently.
	DisableCtrlChannel bool
	DisableThreeWay    bool

	// Static, when non-empty, pins nodes at fixed positions (overrides
	// Nodes and mobility) — used by the Figure 1/4/6 topologies.
	Static []geom.Point
	// FlowPairs, when non-empty, fixes the CBR endpoints.
	FlowPairs [][2]packet.NodeID
	// TrafficStart is when sources begin (default 1 s, jittered).
	TrafficStart sim.Time
	// FlowRateSpreadPct spreads per-flow rates by up to ±pct/2 percent
	// around the nominal rate so flows' phases precess instead of
	// locking. The controlled static topologies (Figures 1/4/6) need
	// this; identical deterministic CBR intervals would otherwise
	// freeze whatever overlap pattern the start jitter produced.
	FlowRateSpreadPct float64
	// Trace receives every node's MAC protocol events; nil disables
	// tracing.
	Trace trace.Sink
	// TimelineBucket, when positive, records a per-bucket timeline of
	// sent/delivered traffic in Result.Timeline — how the run's
	// throughput and delay evolve over simulated time.
	TimelineBucket sim.Duration
	// ShadowingSigmaDB overlays log-normal fading of the given dB
	// deviation on the two-ray model (zero keeps the paper's
	// deterministic channel). Used to probe the protocols' sensitivity
	// to fading — the fluctuation the paper's 0.7 safety coefficient
	// exists for.
	ShadowingSigmaDB float64
	// EnergyProfile names the radio's electrical draw table
	// (energy.Profiles; "" is the WaveLAN-like default). The accountant
	// it feeds is a pure observer: it never perturbs RNG streams or
	// event ordering, so every non-energy metric is independent of the
	// profile.
	EnergyProfile string
	// BatteryJ gives every node a battery of this capacity in joules.
	// Zero (the default) means mains-powered: consumption is still
	// accounted but nothing dies. With a battery, depletion feeds back:
	// the dead node's radios power off, its MAC halts, and AODV must
	// route around it.
	BatteryJ float64
	// CollectSimStats enables the scheduler's pending-depth tracking so
	// Result.PeakQueue is populated. Like the energy observer, it is a
	// pure measurement: events, RNG streams and every other metric are
	// byte-identical with it on or off (the sim-stats soundness tests
	// diff whole runs), and with it off the kernel pays nothing but an
	// untaken branch per scheduled event.
	CollectSimStats bool
}

// WithDefaults fills zero fields with the paper's parameters.
func (o Options) WithDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 50
	}
	if len(o.Static) > 0 {
		o.Nodes = len(o.Static)
	}
	if o.FieldW == 0 {
		o.FieldW = 1000
	}
	if o.FieldH == 0 {
		o.FieldH = 1000
	}
	if o.SpeedMin == 0 {
		o.SpeedMin = 3
	}
	if o.SpeedMax == 0 {
		o.SpeedMax = o.SpeedMin
	}
	if o.Pause == 0 {
		o.Pause = 3 * sim.Second
	}
	if o.Flows == 0 {
		o.Flows = 10
	}
	if len(o.FlowPairs) > 0 {
		o.Flows = len(o.FlowPairs)
	}
	if o.OfferedLoadKbps == 0 {
		o.OfferedLoadKbps = 600
	}
	if o.PacketBytes == 0 {
		o.PacketBytes = 512
	}
	if o.Duration == 0 {
		o.Duration = 400 * sim.Second
	}
	if o.Warmup == 0 {
		o.Warmup = 5 * sim.Second
	}
	if o.HistoryExpiry == 0 {
		o.HistoryExpiry = 3 * sim.Second
	}
	if o.SafetyFactor == 0 {
		o.SafetyFactor = 0.7
	}
	if o.CtrlBandwidthBps == 0 {
		o.CtrlBandwidthBps = 500e3
	}
	if o.TrafficStart == 0 {
		o.TrafficStart = sim.Time(sim.Second)
	}
	if o.BurstFactor == 0 {
		o.BurstFactor = 4
	}
	if o.ParetoShape == 0 {
		// 1 < alpha <= 2 gives the heavy tails of self-similar
		// traffic; 1.5 is the ns-2 convention.
		o.ParetoShape = 1.5
	}
	if o.ResponseBytes == 0 {
		o.ResponseBytes = o.PacketBytes
	}
	return o
}

// Metrics is a run's metric block, declared once for every consumer:
// Network.Run fills it, and the campaign JSONL record (runner.Result)
// embeds it, so the field order and JSON names below are the record's.
type Metrics struct {
	// The paper's two metrics.
	ThroughputKbps float64 `json:"throughput_kbps"`
	AvgDelayMs     float64 `json:"avg_delay_ms"`
	// Delay-distribution metrics: streaming P² percentile estimates
	// over every in-window delivery and per-flow jitter, in ms.
	DelayP50Ms float64 `json:"delay_p50_ms"`
	DelayP95Ms float64 `json:"delay_p95_ms"`
	DelayP99Ms float64 `json:"delay_p99_ms"`
	JitterMs   float64 `json:"jitter_ms"`
	// Secondary metrics.
	PDR          float64 `json:"pdr"`
	JainFairness float64 `json:"jain_fairness"`
	// RadiatedEnergyJ is total *radiated* TX energy on the data channel
	// and CtrlRadiatedEnergyJ on the control channel — the quantity the
	// paper's evaluation integrates (kept under the historical energy_j
	// name for checkpoint compatibility). It excludes circuit overhead,
	// receive, idle-listening and overhearing draw; see ConsumedEnergyJ
	// for the full-radio budget.
	RadiatedEnergyJ     float64 `json:"energy_j"`
	CtrlRadiatedEnergyJ float64 `json:"ctrl_energy_j"`
	// ConsumedEnergyJ is the full-radio electrical consumption summed
	// over all nodes' radios — for PCMAC, the always-on control-channel
	// receiver is metered alongside the data radio and drains the same
	// battery. The four Energy*J fields split it into TX (circuit +
	// radiated), RX, idle-listening and overhear-then-discard joules.
	ConsumedEnergyJ float64 `json:"consumed_energy_j"`
	EnergyTxJ       float64 `json:"energy_tx_j"`
	EnergyRxJ       float64 `json:"energy_rx_j"`
	EnergyIdleJ     float64 `json:"energy_idle_j"`
	EnergyOverhearJ float64 `json:"energy_overhear_j"`
	// ConsumedPerKBJ is full-radio consumed joules per delivered
	// kilobyte of payload (0 when nothing was delivered) — what a
	// battery actually pays per byte of useful work.
	ConsumedPerKBJ float64 `json:"consumed_per_kb_j"`
	// EnergyFairness is Jain's index over per-node residual energy when
	// batteries are enabled, or over per-node consumed energy otherwise
	// (consumption fairness).
	EnergyFairness float64 `json:"energy_fairness"`
	// DeadNodes counts battery deaths; TimeToFirstDeathS is the
	// network-lifetime metric (0 when every node survived).
	DeadNodes         int     `json:"dead_nodes,omitempty"`
	TimeToFirstDeathS float64 `json:"time_to_first_death_s,omitempty"`
	// AliveTimeline is the alive-node step curve as [t_s, alive] pairs:
	// the population at time zero plus one step per death. Never empty.
	AliveTimeline [][2]float64 `json:"alive_timeline"`
	// Events is the number of simulator events executed.
	Events uint64 `json:"events"`
}

// Result is one run's outcome: the metrics plus the per-flow,
// per-node and per-layer detail behind them.
type Result struct {
	// Opts echoes the (defaulted) options.
	Opts Options
	Metrics
	// Flows carries per-flow breakdowns.
	Flows []stats.FlowStats
	// MAC, Ctrl and Routing aggregate per-node counters across the
	// network.
	MAC     mac.Stats
	Ctrl    ctrl.Stats
	Routing aodv.Stats
	// PeakQueue is the deepest the pending-event set got (0 unless
	// Options.CollectSimStats was set) — the number event-queue sizing
	// is judged against.
	PeakQueue int
	// Timeline is the per-bucket evolution (nil unless
	// Options.TimelineBucket was set).
	Timeline *stats.Timeline
}

// perDeliveredKB divides joules by the delivered payload in kilobytes,
// or returns 0 when nothing was delivered.
func (r Result) perDeliveredKB(j float64) float64 {
	var bytes float64
	for _, f := range r.Flows {
		bytes += float64(f.Bytes)
	}
	if bytes == 0 {
		return 0
	}
	return j / (bytes / 1024)
}

// RadiatedPerDeliveredKB returns *radiated* joules (data + control
// channel) per delivered kilobyte of payload — the paper's
// power-efficiency view.
func (r Result) RadiatedPerDeliveredKB() float64 {
	return r.perDeliveredKB(r.RadiatedEnergyJ + r.CtrlRadiatedEnergyJ)
}

// Network is a fully built scenario, exposed so examples and tests can
// poke at individual nodes before/after running.
type Network struct {
	Opts      Options
	Sched     *sim.Scheduler
	DataCh    *phys.Channel
	CtrlCh    *phys.Channel // nil unless PCMAC with control channel
	Nodes     []*Node
	Sources   []*traffic.Source
	Collector *stats.Collector
	Timeline  *stats.Timeline // nil unless Options.TimelineBucket set
}

// Build constructs the network without running it.
func Build(o Options) (*Network, error) {
	// Spec-time validation also guards the direct-Options path (CLIs,
	// examples, library callers), so bad configurations return errors
	// here instead of panicking deep inside a run.
	if err := validate(o); err != nil {
		return nil, err
	}
	o = o.WithDefaults()
	sched := sim.NewScheduler()
	if o.CollectSimStats {
		sched.TrackDepth(true)
	}
	var model phys.Propagation = phys.NewTwoRayGround()
	var ctrlModel phys.Propagation = model
	if o.ShadowingSigmaDB > 0 {
		// Independent fading processes per channel, both seeded from
		// the scenario seed for reproducibility, overlaid on the same
		// two-ray geometry.
		model = phys.NewShadowing(model, o.ShadowingSigmaDB, o.Seed^0x5eed)
		ctrlModel = phys.NewShadowing(ctrlModel, o.ShadowingSigmaDB, o.Seed^0xc0de)
	}
	dataCh := phys.NewChannel(sched, model)
	var ctrlCh *phys.Channel
	if o.Scheme == mac.PCMAC && !o.DisableCtrlChannel {
		ctrlCh = phys.NewChannel(sched, ctrlModel)
	}

	master := rand.New(rand.NewSource(o.Seed))
	var uid uint64
	nextUID := func() uint64 { uid++; return uid }

	tmodel, err := traffic.ParseModel(o.Traffic)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	eprof, err := energy.ParseProfile(o.EnergyProfile)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if o.Topology != "" && len(o.Static) == 0 {
		pts, err := GenTopology(o.Topology, o.Nodes, o.FieldW, o.FieldH, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			return nil, err
		}
		o.Static = pts
	}

	field := geom.NewField(o.FieldW, o.FieldH)
	nw := &Network{Opts: o, Sched: sched, DataCh: dataCh, CtrlCh: ctrlCh}

	collector := stats.NewCollector(sim.Time(o.Warmup))
	nw.Collector = collector
	collector.SetPopulation(o.Nodes)
	if o.TimelineBucket > 0 {
		nw.Timeline = stats.NewTimeline(o.TimelineBucket)
	}

	var slab []nodeBlock
	nw.Nodes = make([]*Node, 0, o.Nodes)
	for i := 0; i < o.Nodes; i++ {
		if len(slab) == 0 {
			slab = make([]nodeBlock, min(blockSlab, o.Nodes-i))
		}
		b := &slab[0]
		slab = slab[1:]
		var mob mobility.Model
		if len(o.Static) > 0 {
			mob = mobility.Static(o.Static[i])
		} else {
			mob = mobility.NewWaypoint(field, o.SpeedMin, o.SpeedMax, o.Pause, rand.New(rand.NewSource(master.Int63())))
		}
		n, err := newNode(b, packet.NodeID(i), &o, sched, dataCh, ctrlCh, mob, eprof, rand.New(rand.NewSource(master.Int63())))
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		// OnDeath is wired unconditionally: it only ever fires when a
		// battery depletes (Options.BatteryJ, or a per-node SetCapacity
		// applied by tests/tools after Build).
		n.Energy.Battery().OnDeath = func() {
			n.Die()
			collector.NodeDied(sched.Now())
		}
		n.Router.NextUID = nextUID
		n.Router.Deliver = func(np *packet.NetPacket, from packet.NodeID) {
			if np.Proto == packet.ProtoUDP {
				collector.PacketDelivered(np, sched.Now())
				if nw.Timeline != nil {
					nw.Timeline.PacketDelivered(np, sched.Now())
				}
				// Flow i+1 is Sources[i]; reqresp responses, flows
				// n+1..2n, have no source of their own.
				if f := int(np.FlowID) - 1; f >= 0 && f < len(nw.Sources) {
					nw.Sources[f].Delivered(np, sched.Now())
				}
			}
		}
		nw.Nodes = append(nw.Nodes, n)
	}

	// The motion promise is the channels' only input about motion:
	// pinned placements (0) cache link rows and build the spatial index
	// once; waypoint motion is bounded by SpeedMax, so the index keeps
	// its cells across bounded drift while rows are built per frame.
	maxSpeed := o.SpeedMax
	if len(o.Static) > 0 {
		maxSpeed = 0
	}
	dataCh.SetMaxSpeed(maxSpeed)
	if ctrlCh != nil {
		ctrlCh.SetMaxSpeed(maxSpeed)
	}

	// Flows.
	pairs := o.FlowPairs
	if len(pairs) == 0 {
		pairs = traffic.PickPairs(o.Nodes, o.Flows, master)
	}
	perFlowBps := o.OfferedLoadKbps * 1e3 / float64(len(pairs))
	onGenerate := func(np *packet.NetPacket) {
		collector.PacketSent(np)
		if nw.Timeline != nil {
			nw.Timeline.PacketSent(np)
		}
	}
	for i, p := range pairs {
		rate := perFlowBps
		if o.FlowRateSpreadPct > 0 && len(pairs) > 1 {
			frac := float64(i)/float64(len(pairs)-1) - 0.5
			rate *= 1 + o.FlowRateSpreadPct/100*frac
		}
		if tmodel == traffic.ReqRespModel {
			// Scale the request rate so request + response payload
			// together carry the flow's offered-load share.
			rate *= float64(o.PacketBytes) / float64(o.PacketBytes+o.ResponseBytes)
		}
		interval := traffic.IntervalFor(o.PacketBytes, rate)
		params := traffic.Params{
			Sched:       sched,
			Sender:      nw.Nodes[p[0]].Router,
			FlowID:      uint32(i + 1),
			Src:         p[0],
			Dst:         p[1],
			Bytes:       o.PacketBytes,
			Interval:    interval,
			BurstFactor: o.BurstFactor,
			ParetoShape: o.ParetoShape,
			RespSender:  nw.Nodes[p[1]].Router,
			RespFlowID:  uint32(len(pairs) + i + 1),
			RespBytes:   o.ResponseBytes,
			NextUID:     nextUID,
			OnGenerate:  onGenerate,
		}
		if tmodel != traffic.CBRModel {
			// Each stochastic source owns its RNG; CBR draws nothing, so
			// the master stream (and every CBR result) is untouched by
			// the traffic axis existing.
			params.RNG = rand.New(rand.NewSource(master.Int63()))
		}
		src, err := traffic.NewSource(tmodel, params)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		jitter := sim.Duration(master.Int63n(int64(interval)))
		src.Start(o.TrafficStart.Add(jitter), sim.Time(o.Duration))
		nw.Sources = append(nw.Sources, src)
	}
	return nw, nil
}

// Run executes the network to its configured duration and returns the
// metrics.
func (nw *Network) Run() Result {
	o := nw.Opts
	nw.Sched.Run(sim.Time(o.Duration))
	nw.Collector.End = sim.Time(o.Duration)

	res := Result{
		Opts: o,
		Metrics: Metrics{
			ThroughputKbps: nw.Collector.ThroughputKbps(),
			AvgDelayMs:     nw.Collector.MeanDelayMs(),
			DelayP50Ms:     nw.Collector.DelayP50Ms(),
			DelayP95Ms:     nw.Collector.DelayP95Ms(),
			DelayP99Ms:     nw.Collector.DelayP99Ms(),
			JitterMs:       nw.Collector.JitterMs(),
			PDR:            nw.Collector.PDR(),
			JainFairness:   nw.Collector.JainFairness(),
			Events:         nw.Sched.Executed(),
		},
		Flows:     nw.Collector.Flows(),
		PeakQueue: nw.Sched.PeakPending(),
		Timeline:  nw.Timeline,
	}
	var byState energy.Breakdown
	var residuals, consumed []float64
	for _, n := range nw.Nodes {
		res.MAC.Add(n.MAC.Stats)
		res.Routing.Add(n.Router.Stats)
		res.RadiatedEnergyJ += n.MAC.Radio().EnergyTxJ
		if n.Ctrl != nil {
			s := n.Ctrl.Stats
			res.Ctrl.Sent += s.Sent
			res.Ctrl.Skipped += s.Skipped
			res.Ctrl.Received += s.Received
			res.Ctrl.Corrupted += s.Corrupted
			res.Ctrl.Malformed += s.Malformed
		}
		if a := n.Energy; a != nil {
			// Settle both radios' draw up to the horizon before reading
			// the residual: the control receiver drains the same battery.
			a.Flush()
			node := a.Consumed()
			if ca := n.CtrlEnergy; ca != nil {
				ca.Flush()
				node.AddFrom(ca.Consumed()) // control receiver: same node, same battery
			}
			residuals = append(residuals, a.ResidualJ())
			byState.AddFrom(node)
			consumed = append(consumed, node.Total())
		}
	}
	res.ConsumedEnergyJ = byState.Total()
	res.EnergyTxJ = byState[energy.Tx]
	res.EnergyRxJ = byState[energy.Rx]
	res.EnergyIdleJ = byState[energy.Idle]
	res.EnergyOverhearJ = byState[energy.Overhear]
	res.ConsumedPerKBJ = res.perDeliveredKB(res.ConsumedEnergyJ)
	if o.BatteryJ > 0 {
		res.EnergyFairness = stats.Jain(residuals)
	} else {
		res.EnergyFairness = stats.Jain(consumed)
	}
	res.DeadNodes = nw.Collector.DeadNodes()
	res.TimeToFirstDeathS = nw.Collector.FirstDeathS()
	for _, st := range nw.Collector.AliveTimeline() {
		res.AliveTimeline = append(res.AliveTimeline, [2]float64{st.T.Seconds(), float64(st.Alive)})
	}
	if nw.CtrlCh != nil {
		for _, r := range nw.CtrlCh.Radios() {
			res.CtrlRadiatedEnergyJ += r.EnergyTxJ
		}
	}
	return res
}

// Run builds and runs a scenario in one call.
func Run(o Options) (Result, error) {
	nw, err := Build(o)
	if err != nil {
		return Result{}, err
	}
	return nw.Run(), nil
}
