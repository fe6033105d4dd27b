package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"syscall"
	"time"
)

// opRecord is one timed op as the parent process saw it.
type opRecord struct {
	opStat
	SetupS float64
	// RSSMB is the child's peak resident set (ru_maxrss).
	RSSMB float64
	// Speed is the host's speed around the op (see speedProbe.around).
	Speed float64
}

// set is everything measured for one workload at one seed.
type set struct {
	w       workload
	seed    int64
	horizon float64
	speed   *speedProbe
	// want maps an instance to its expected output: the golden entry, or
	// the first op that ran it.
	want   map[int]goldenEntry
	timed  []opRecord
	traced *childResult
	// attempted and failed count ops, timed and traced; an op fails when
	// its child errors or its output is wrong.
	attempted, failed int
}

//go:embed golden.json
var goldenJSON []byte

// golden holds, for one seed at full horizon, each workload's instances'
// JSONL digests and event counts.
type golden struct {
	Seed      int64                    `json:"seed"`
	Workloads map[string][]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Events uint64 `json:"events"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// newSet starts a workload's set; sets measured in turn share one probe.
func newSet(w workload, seed int64, horizon float64, g golden, speed *speedProbe) *set {
	s := &set{w: w, seed: seed, horizon: horizon, speed: speed, want: map[int]goldenEntry{}}
	if seed == g.Seed && horizon == 1 {
		for i, e := range g.Workloads[w.name] {
			s.want[i] = e
		}
	}
	return s
}

// runTimed runs the next timed op in a fresh child process, between two
// speed probes. Op i runs instance i mod instances, so a long run also
// repeats instances and checks that they reproduce.
func (s *set) runTimed() {
	inst := s.attempted % instances
	var res childResult
	var rss float64
	var err error
	speed, perr := s.speed.around(func() {
		res, rss, err = spawn(opRequest{Workload: s.w.name, Seed: s.seed, Horizon: s.horizon, Instance: inst})
	})
	if err == nil {
		err = perr
	}
	s.attempted++
	if err == nil && len(res.Ops) != 1 {
		err = fmt.Errorf("child returned %d ops", len(res.Ops))
	}
	if err == nil {
		err = s.check(res.Ops[0])
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "bench: %s seed %d instance %d: %v\n", s.w.name, s.seed, inst, err)
		return
	}
	s.timed = append(s.timed, opRecord{opStat: res.Ops[0], SetupS: res.SetupS, RSSMB: rss, Speed: speed})
}

// runTraced runs the profiled child over instances 0..tracedOps-1.
func (s *set) runTraced() {
	res, _, err := spawn(opRequest{Workload: s.w.name, Seed: s.seed, Horizon: s.horizon, Traced: true})
	if err == nil && len(res.Ops) != tracedOps {
		err = fmt.Errorf("child returned %d ops", len(res.Ops))
	}
	if err != nil {
		s.attempted += tracedOps
		s.failed += tracedOps
		fmt.Fprintf(os.Stderr, "bench: %s seed %d traced: %v\n", s.w.name, s.seed, err)
		return
	}
	ok := true
	for _, op := range res.Ops {
		s.attempted++
		if err := s.check(op); err != nil {
			s.failed++
			ok = false
			fmt.Fprintf(os.Stderr, "bench: %s seed %d traced instance %d: %v\n", s.w.name, s.seed, op.Instance, err)
		}
	}
	if ok {
		s.traced = &res
	}
}

// check compares an op's output with what its instance must produce.
func (s *set) check(op opStat) error {
	want, ok := s.want[op.Instance]
	if !ok {
		s.want[op.Instance] = goldenEntry{op.Digest, op.Events}
		return nil
	}
	if op.Events != want.Events || op.Digest != want.SHA256 {
		return fmt.Errorf("output %.12s with %d events, want %.12s with %d", op.Digest, op.Events, want.SHA256, want.Events)
	}
	return nil
}

// spawn re-executes this binary as a child serving req, one at a time,
// and returns its reply and peak RSS in MB.
func spawn(req opRequest) (childResult, float64, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, 0, err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b))
	// A child outlives nothing: if the benchmark is killed, so is its op.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("child: %w", err)
	}
	var rss float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, 0, fmt.Errorf("child reply: %w", err)
	}
	return res, rss, nil
}

// measure runs n timed ops back to back, fewer if the deadline passes
// first (at least one), then the traced child if trace is set.
func (s *set) measure(n int, deadline time.Time, trace bool) {
	for i := 0; i < n && (i == 0 || time.Now().Before(deadline)); i++ {
		s.runTimed()
	}
	if trace {
		s.runTraced()
	}
}

// measureRoundRobin runs reps timed ops per set, cycling through the
// sets so drift on a shared host hits every workload alike, then each
// set's traced child.
func measureRoundRobin(sets []*set, reps int) {
	for i := 0; i < reps; i++ {
		for _, s := range sets {
			s.runTimed()
		}
	}
	for _, s := range sets {
		s.runTraced()
	}
}

// summary is a timing's median, quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize uses the quartile rule of Python's statistics.quantiles
// (exclusive method, n=4), which the benchmark's consumers apply too.
func summarize(xs []float64, unit string) summary {
	s := summary{N: len(xs), Unit: unit}
	if len(xs) == 0 {
		return s
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		s.Median = xs[n/2]
	} else {
		s.Median = (xs[n/2-1] + xs[n/2]) / 2
	}
	if n < 2 {
		s.Q1, s.Q3 = s.Median, s.Median
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// metric is a per-op value summarized over a set's timed ops.
type metric struct {
	name, unit string
	of         func(r opRecord) float64
}

// calWall is an op's wall time calibrated by its host speed: seconds on
// the reference host at nominal speed (see speed.go).
func calWall(r opRecord) float64 { return r.WallS * r.Speed }

// endToEnd lists the end-to-end metrics in report order. Host times are
// calibrated, setup_s too. Throughput is per event, not per run: a whole
// run's cost follows its input (per-instance CV about 20% on paper-fig8
// and scale2000-static), so a run's median wall time moves 12-14% from
// one benchmark seed to the next, while its time per event is what the
// program's speed sets.
var endToEnd = []metric{
	{"cal_events_per_s", "events/s", func(r opRecord) float64 { return float64(r.Events) / calWall(r) }},
	{"setup_s", "s", func(r opRecord) float64 { return r.SetupS * r.Speed }},
	{"alloc_bytes_per_event", "B", func(r opRecord) float64 { return float64(r.AllocBytes) / float64(r.Events) }},
	{"peak_rss_mb", "MB", func(r opRecord) float64 { return r.RSSMB }},
}

// printedOnly lists what is printed beside the end-to-end metrics but
// not gated: whole-op times and rates, calibrated and as the clock read
// them, and the host speed that calibrates them.
var printedOnly = []metric{
	{"cal_wall_s", "s", calWall},
	{"cal_runs_per_s", "runs/s", func(r opRecord) float64 { return float64(r.Runs) / calWall(r) }},
	{"wall_s", "s", func(r opRecord) float64 { return r.WallS }},
	{"events_per_s", "events/s", func(r opRecord) float64 { return float64(r.Events) / r.WallS }},
	{"raw_setup_s", "s", func(r opRecord) float64 { return r.SetupS }},
	{"runs_per_s", "runs/s", func(r opRecord) float64 { return float64(r.Runs) / r.WallS }},
	{"host_speed", "ratio", func(r opRecord) float64 { return r.Speed }},
}

// over collects one value from each timed op.
func (s *set) over(of func(r opRecord) float64) []float64 {
	xs := make([]float64, len(s.timed))
	for i, r := range s.timed {
		xs[i] = of(r)
	}
	return xs
}

func (s *set) summaries(ms []metric) map[string]summary {
	out := make(map[string]summary, len(ms))
	for _, m := range ms {
		out[m.name] = summarize(s.over(m.of), m.unit)
	}
	return out
}

// value is one per-layer metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayerNames lists the per-layer metrics in report order with their
// units.
func perLayerNames() [][2]string {
	var names [][2]string
	for _, l := range layers {
		names = append(names, [2]string{l + ".self_share", "ratio"})
	}
	return append(names,
		[2]string{"trace.samples", "count"},
		[2]string{"trace.cpu_ns_per_event", "ns"},
		[2]string{"trace.overhead_share", "ratio"},
		[2]string{"sim.run_share", "ratio"},
		[2]string{"stats.result_share", "ratio"},
		[2]string{"runner.busy_share", "ratio"},
		[2]string{"runner.emit_s", "s"},
		[2]string{"gc.alloc_mb_per_op", "MB"},
		[2]string{"gc.cycles_per_op", "count"},
		[2]string{"gc.cpu_share", "ratio"},
		[2]string{"sim.events", "count"},
		[2]string{"sim.peak_pending", "count"},
		[2]string{"phys.frames_sent", "count"},
		[2]string{"mac.rts_sent", "count"},
		[2]string{"mac.retries", "count"},
		[2]string{"mac.cts_timeouts", "count"},
		[2]string{"mac.delivered_per_rts", "ratio"},
		[2]string{"mac.rx_error_ratio", "ratio"},
		[2]string{"ctrl.announcements", "count"},
		[2]string{"ctrl.decode_ratio", "ratio"},
		[2]string{"aodv.rreq_sent", "count"},
		[2]string{"aodv.rreq_dup_ratio", "ratio"},
		[2]string{"aodv.discoveries", "count"},
		[2]string{"aodv.discovery_fail_ratio", "ratio"},
	)
}

// perLayer derives the per-layer metrics from the timed ops and the
// traced child. Metrics a workload has no layer for (the runner's busy
// share on a single run, the run phases and MAC counters on a campaign)
// read 0; they are ratios and counts, so no time reads 0. It needs the
// traced child.
func (s *set) perLayer() map[string]value {
	med := func(of func(r opRecord) float64) float64 { return summarize(s.over(of), "").Median }
	v := map[string]float64{
		"sim.run_share":      med(func(r opRecord) float64 { return r.RunS / r.WallS }),
		"stats.result_share": med(func(r opRecord) float64 { return r.ResultS / r.WallS }),
		"runner.emit_s":      med(func(r opRecord) float64 { return r.EmitS }),
		"runner.busy_share": med(func(r opRecord) float64 {
			if r.Workers == 0 {
				return 0
			}
			return r.BusyS / (float64(r.Workers) * r.WallS)
		}),
		"gc.alloc_mb_per_op": med(func(r opRecord) float64 { return float64(r.AllocBytes) / 1e6 }),
		"gc.cycles_per_op":   med(func(r opRecord) float64 { return float64(r.GCCycles) }),
		"gc.cpu_share":       med(func(r opRecord) float64 { return r.GCCPUShare }),
	}

	// Exact counts are instance 0's, from the traced child, which also
	// tracks the pending-set depth.
	tr := s.traced
	first := tr.Ops[0]
	m, c, a := first.MAC, first.Ctrl, first.Routing
	v["sim.events"] = float64(first.Events)
	v["sim.peak_pending"] = float64(first.PeakPending)
	v["phys.frames_sent"] = float64(m.TxRTS + m.TxCTS + m.TxData + m.TxAck + m.TxBroadcast + c.Sent)
	v["mac.rts_sent"] = float64(m.TxRTS)
	v["mac.retries"] = float64(m.Retries)
	v["mac.cts_timeouts"] = float64(m.CTSTimeout)
	v["mac.delivered_per_rts"] = ratio(m.Delivered, m.TxRTS)
	v["mac.rx_error_ratio"] = ratio(m.RxError, m.RxClean+m.RxOverheard+m.RxError)
	v["ctrl.announcements"] = float64(c.Sent)
	v["ctrl.decode_ratio"] = ratio(c.Received, c.Received+c.Corrupted+c.Malformed)
	v["aodv.rreq_sent"] = float64(a.RREQSent)
	v["aodv.rreq_dup_ratio"] = ratio(a.DuplicateRREQIgnored, a.RREQRecv)
	v["aodv.discoveries"] = float64(a.DiscoveryStarted)
	v["aodv.discovery_fail_ratio"] = ratio(a.DiscoveryFailed, a.DiscoveryStarted)

	// Tracing overhead compares each traced op with the timed ops of the
	// same instance, since instances differ more than tracing costs.
	var events uint64
	var overheads []float64
	for _, op := range tr.Ops {
		events += op.Events
		var walls []float64
		for _, r := range s.timed {
			if r.Instance == op.Instance {
				walls = append(walls, r.WallS)
			}
		}
		if len(walls) > 0 {
			overheads = append(overheads, op.WallS/summarize(walls, "").Median-1)
		}
	}
	v["trace.samples"] = float64(tr.Samples)
	v["trace.overhead_share"] = summarize(overheads, "").Median
	var total int64
	for _, ns := range tr.LayerNS {
		total += ns
	}
	v["trace.cpu_ns_per_event"] = float64(total) / float64(events)
	for _, l := range layers {
		if total > 0 {
			v[l+".self_share"] = float64(tr.LayerNS[l]) / float64(total)
		}
	}

	out := make(map[string]value, len(v))
	for _, nu := range perLayerNames() {
		out[nu[0]] = value{v[nu[0]], nu[1]}
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
