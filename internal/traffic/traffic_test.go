package traffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

type captureSender struct {
	pkts []*packet.NetPacket
}

func (s *captureSender) Send(np *packet.NetPacket) { s.pkts = append(s.pkts, np) }

// newCBR builds a 512-byte CBR source from node 0 to node 5.
func newCBR(t *testing.T, sched *sim.Scheduler, snd Sender, interval sim.Duration) *Source {
	t.Helper()
	c, err := NewSource(CBRModel, Params{Sched: sched, Sender: snd, FlowID: 1, Src: 0, Dst: 5, Bytes: 512, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCBRGeneratesAtRate(t *testing.T) {
	sched := sim.NewScheduler()
	snd := &captureSender{}
	// 512 B every 50 ms for 10 s starting at 1 s -> 180 packets.
	c := newCBR(t, sched, snd, 50*sim.Millisecond)
	c.Start(sim.Time(sim.Second), sim.Time(10*sim.Second))
	sched.RunAll()
	if len(snd.pkts) != 180 {
		t.Fatalf("generated %d packets, want 180", len(snd.pkts))
	}
	// Sequences are 1..n and creation times spaced by the interval.
	for i, p := range snd.pkts {
		if p.Seq != uint32(i+1) {
			t.Fatalf("packet %d seq = %d", i, p.Seq)
		}
		want := sim.Time(sim.Second).Add(sim.Duration(i) * 50 * sim.Millisecond)
		if p.CreatedAt != want {
			t.Fatalf("packet %d created at %v, want %v", i, p.CreatedAt, want)
		}
		if p.Src != 0 || p.Dst != 5 || p.Bytes != 512 || p.Proto != packet.ProtoUDP || p.FlowID != 1 {
			t.Fatalf("packet fields wrong: %+v", p)
		}
	}
}

func TestCBRStop(t *testing.T) {
	sched := sim.NewScheduler()
	snd := &captureSender{}
	c := newCBR(t, sched, snd, 10*sim.Millisecond)
	c.Start(0, sim.Time(10*sim.Second))
	sched.Schedule(105*sim.Millisecond, func() { c.Stop() })
	sched.Run(sim.Time(sim.Second))
	if len(snd.pkts) != 11 { // t=0..100ms inclusive
		t.Fatalf("generated %d packets after Stop, want 11", len(snd.pkts))
	}
}

func TestCBRRate(t *testing.T) {
	c := newCBR(t, sim.NewScheduler(), &captureSender{}, 50*sim.Millisecond)
	want := 512.0 * 8 / 0.05
	if got := float64(c.Bytes*8) / c.Interval.Seconds(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("rate = %v bps, want %v", got, want)
	}
}

func TestCBRHook(t *testing.T) {
	sched := sim.NewScheduler()
	snd := &captureSender{}
	var hooked int
	uid := uint64(100)
	c, err := NewSource(CBRModel, Params{
		Sched: sched, Sender: snd, FlowID: 1, Src: 0, Dst: 5, Bytes: 512, Interval: 100 * sim.Millisecond,
		NextUID:    func() uint64 { uid++; return uid },
		OnGenerate: func(np *packet.NetPacket) { hooked++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0, sim.Time(sim.Second))
	sched.RunAll()
	if hooked != len(snd.pkts) {
		t.Fatalf("hook fired %d times for %d packets", hooked, len(snd.pkts))
	}
	if snd.pkts[0].UID != 101 {
		t.Fatalf("UID = %d, want 101", snd.pkts[0].UID)
	}
}

func TestIntervalFor(t *testing.T) {
	// One 512 B flow at 30 kbps: 4096 bits / 30000 bps = 136.53 ms.
	got := IntervalFor(512, 30e3)
	want := sim.DurationOf(4096.0 / 30000.0)
	if got != want {
		t.Fatalf("IntervalFor = %v, want %v", got, want)
	}
	// Sanity: ten such flows offer 300 kbps aggregate.
	agg := 10 * 512 * 8 / got.Seconds()
	if math.Abs(agg-300e3)/300e3 > 1e-6 {
		t.Fatalf("aggregate = %v, want 300k", agg)
	}
}

// TestCBRInvalid: a CBR source refuses a zero interval or payload, and
// IntervalFor refuses a zero rate.
func TestCBRInvalid(t *testing.T) {
	base := Params{
		Sched: sim.NewScheduler(), Sender: &captureSender{}, FlowID: 1, Dst: 1,
		Bytes: 512, Interval: sim.Second,
	}
	if _, err := NewSource(CBRModel, base); err != nil {
		t.Fatalf("valid CBR source: %v", err)
	}
	noInterval := base
	noInterval.Interval = 0
	if _, err := NewSource(CBRModel, noInterval); err == nil {
		t.Error("CBR with zero interval accepted")
	}
	noPayload := base
	noPayload.Bytes = 0
	if _, err := NewSource(CBRModel, noPayload); err == nil {
		t.Error("CBR with zero payload accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("IntervalFor(512, 0) did not panic")
		}
	}()
	IntervalFor(512, 0)
}

func TestPickPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := PickPairs(50, 10, rng)
	if len(pairs) != 10 {
		t.Fatalf("len = %d", len(pairs))
	}
	seen := map[[2]packet.NodeID]bool{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("self-flow %v", p)
		}
		if p[0] >= 50 || p[1] >= 50 {
			t.Fatalf("node out of range %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestPickPairsPanicsTinyNetwork(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PickPairs(1, ...) did not panic")
		}
	}()
	PickPairs(1, 1, rand.New(rand.NewSource(1)))
}

// TestPickPairsSmallNetworks is the regression test for the dense
// case: asking for most (or all) of a small network's ordered pairs
// must terminate promptly and still guarantee src != dst and no
// duplicates. Before the exhaustive-shuffle path, any n above
// count*(count-1) made the rejection loop spin forever, and n close to
// it degraded coupon-collector style; now impossible requests panic
// up front and dense ones shuffle the full pair set.
func TestPickPairsSmallNetworks(t *testing.T) {
	for _, tc := range []struct{ count, n int }{
		{2, 1}, {2, 2}, {3, 4}, {3, 6}, {4, 12}, {5, 11},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			pairs := PickPairs(tc.count, tc.n, rand.New(rand.NewSource(seed)))
			if len(pairs) != tc.n {
				t.Fatalf("PickPairs(%d, %d): %d pairs", tc.count, tc.n, len(pairs))
			}
			seen := map[[2]packet.NodeID]bool{}
			for _, p := range pairs {
				if p[0] == p[1] {
					t.Fatalf("PickPairs(%d, %d): self-flow %v", tc.count, tc.n, p)
				}
				if int(p[0]) >= tc.count || int(p[1]) >= tc.count {
					t.Fatalf("PickPairs(%d, %d): node out of range %v", tc.count, tc.n, p)
				}
				if seen[p] {
					t.Fatalf("PickPairs(%d, %d): duplicate pair %v", tc.count, tc.n, p)
				}
				seen[p] = true
			}
		}
	}
}

// TestPickPairsDeterministic pins the draw to the seed on both the
// rejection and exhaustive paths.
func TestPickPairsDeterministic(t *testing.T) {
	for _, tc := range []struct{ count, n int }{{50, 10}, {3, 6}} {
		a := PickPairs(tc.count, tc.n, rand.New(rand.NewSource(5)))
		b := PickPairs(tc.count, tc.n, rand.New(rand.NewSource(5)))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("PickPairs(%d, %d): pair %d differs: %v vs %v", tc.count, tc.n, i, a[i], b[i])
			}
		}
	}
}

func TestPickPairsPanicsImpossible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PickPairs(2, 3) did not panic")
		}
	}()
	PickPairs(2, 3, rand.New(rand.NewSource(1)))
}

// runSource drives a freshly built source of the given model for
// horizon seconds and returns the captured packets.
func runSource(t *testing.T, m Model, seed int64, horizon sim.Duration) []*packet.NetPacket {
	t.Helper()
	sched := sim.NewScheduler()
	snd := &captureSender{}
	src, err := NewSource(m, Params{
		Sched:       sched,
		Sender:      snd,
		FlowID:      1,
		Src:         0,
		Dst:         5,
		Bytes:       512,
		Interval:    100 * sim.Millisecond,
		RNG:         rand.New(rand.NewSource(seed)),
		BurstFactor: 4,
		ParetoShape: 1.5,
		RespSender:  snd,
		RespFlowID:  2,
		RespBytes:   512,
	})
	if err != nil {
		t.Fatal(err)
	}
	src.Start(0, sim.Time(horizon))
	sched.RunAll()
	return snd.pkts
}

// TestSourceMeanRates checks every model offers its nominal mean rate:
// 10 pkt/s of 512 B over a long horizon, within a tolerance wide
// enough for the heavy-tailed models' slow convergence.
func TestSourceMeanRates(t *testing.T) {
	const horizon = 2000 * sim.Second
	want := 10.0 * horizon.Seconds()
	for _, tc := range []struct {
		model Model
		tol   float64
	}{
		{CBRModel, 0.01},
		{PoissonModel, 0.05},
		{OnOffModel, 0.05},
		{ParetoModel, 0.25},
	} {
		pkts := runSource(t, tc.model, 42, horizon)
		got := float64(len(pkts))
		if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s: generated %d packets over %v, want %.0f ±%.0f%%",
				tc.model, len(pkts), horizon, want, tc.tol*100)
		}
	}
}

// cv returns the coefficient of variation of the inter-arrival gaps.
func cv(pkts []*packet.NetPacket) float64 {
	var gaps []float64
	for i := 1; i < len(pkts); i++ {
		gaps = append(gaps, pkts[i].CreatedAt.Sub(pkts[i-1].CreatedAt).Seconds())
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		d := g - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(gaps))) / mean
}

// TestSourceBurstiness orders the models by inter-arrival variability:
// CBR is deterministic (CV ~0), Poisson memoryless (CV ~1), and the
// on-off models burstier still.
func TestSourceBurstiness(t *testing.T) {
	const horizon = 1000 * sim.Second
	cvs := make(map[Model]float64)
	for _, m := range []Model{CBRModel, PoissonModel, OnOffModel, ParetoModel} {
		pkts := runSource(t, m, 7, horizon)
		if len(pkts) < 100 {
			t.Fatalf("%s: only %d packets", m, len(pkts))
		}
		cvs[m] = cv(pkts)
	}
	if cvs[CBRModel] > 1e-9 {
		t.Errorf("cbr CV = %g, want 0", cvs[CBRModel])
	}
	if math.Abs(cvs[PoissonModel]-1) > 0.15 {
		t.Errorf("poisson CV = %g, want ~1", cvs[PoissonModel])
	}
	if cvs[OnOffModel] < 1.2 {
		t.Errorf("onoff CV = %g, want > 1.2 (burstier than poisson)", cvs[OnOffModel])
	}
	if cvs[ParetoModel] < 1.2 {
		t.Errorf("pareto CV = %g, want > 1.2 (burstier than poisson)", cvs[ParetoModel])
	}
}

// TestSourceSchedulesDeterministic requires byte-identical packet
// schedules (creation time, seq) across two runs with the same seed —
// the property the campaign runner's reproducibility contract rests on.
func TestSourceSchedulesDeterministic(t *testing.T) {
	for _, m := range Models() {
		a := runSource(t, m, 99, 200*sim.Second)
		b := runSource(t, m, 99, 200*sim.Second)
		if len(a) != len(b) {
			t.Errorf("%s: %d vs %d packets across identical runs", m, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i].CreatedAt != b[i].CreatedAt || a[i].Seq != b[i].Seq {
				t.Errorf("%s: packet %d differs: (%v, %d) vs (%v, %d)",
					m, i, a[i].CreatedAt, a[i].Seq, b[i].CreatedAt, b[i].Seq)
				break
			}
		}
		// A different seed must change the stochastic schedules.
		if m == CBRModel {
			continue
		}
		c := runSource(t, m, 100, 200*sim.Second)
		same := len(a) == len(c)
		if same {
			for i := range a {
				if a[i].CreatedAt != c[i].CreatedAt {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: schedule identical under a different seed", m)
		}
	}
}

// TestReqResp closes the loop by hand: every "delivered" request must
// trigger one response from dst back to src on the response flow.
func TestReqResp(t *testing.T) {
	sched := sim.NewScheduler()
	req := &captureSender{}
	resp := &captureSender{}
	uid := uint64(0)
	r, err := NewSource(ReqRespModel, Params{
		Sched: sched, Sender: req, FlowID: 1, Src: 3, Dst: 8, Bytes: 512, Interval: 100 * sim.Millisecond,
		RNG:        rand.New(rand.NewSource(1)),
		RespSender: resp, RespFlowID: 9, RespBytes: 128,
		NextUID: func() uint64 { uid++; return uid },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start(0, sim.Time(20*sim.Second))
	sched.RunAll()
	if len(req.pkts) == 0 {
		t.Fatal("no requests generated")
	}
	// Deliver every other request.
	delivered := 0
	for i, np := range req.pkts {
		if i%2 == 0 {
			r.Delivered(np, np.CreatedAt.Add(5*sim.Millisecond))
			delivered++
		}
	}
	if len(resp.pkts) != delivered {
		t.Fatalf("responses = %d, want %d", len(resp.pkts), delivered)
	}
	for i, np := range resp.pkts {
		if np.FlowID != 9 || np.Src != 8 || np.Dst != 3 || np.Bytes != 128 {
			t.Fatalf("response fields wrong: %+v", np)
		}
		if np.Seq != uint32(i+1) {
			t.Fatalf("response %d seq = %d", i, np.Seq)
		}
	}
	// A duplicate delivery of an already-answered request (MAC
	// retransmission race) must not inject a second response.
	r.Delivered(req.pkts[0], req.pkts[0].CreatedAt.Add(50*sim.Millisecond))
	if len(resp.pkts) != delivered {
		t.Fatalf("re-answered: %d responses, want %d", len(resp.pkts), delivered)
	}
}

// TestDeliveredIgnoredByOtherModels: only reqresp answers deliveries.
func TestDeliveredIgnoredByOtherModels(t *testing.T) {
	for _, m := range []Model{CBRModel, PoissonModel, OnOffModel, ParetoModel} {
		sched := sim.NewScheduler()
		snd := &captureSender{}
		s, err := NewSource(m, Params{
			Sched: sched, Sender: snd, FlowID: 1, Dst: 1, Bytes: 512, Interval: sim.Second,
			RNG: rand.New(rand.NewSource(1)), BurstFactor: 4, ParetoShape: 1.5,
			RespSender: snd, RespFlowID: 2, RespBytes: 512,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Delivered(&packet.NetPacket{FlowID: 1, Seq: 1}, 0)
		if len(snd.pkts) != 0 {
			t.Errorf("%s: a delivery injected %d packets", m, len(snd.pkts))
		}
	}
}

// TestNewSourceErrors rejects invalid model/parameter combinations
// with an error, never a panic.
func TestNewSourceErrors(t *testing.T) {
	sched := sim.NewScheduler()
	snd := &captureSender{}
	rng := rand.New(rand.NewSource(1))
	base := Params{
		Sched: sched, Sender: snd, FlowID: 1, Dst: 1, Bytes: 512, Interval: sim.Second,
		RNG: rng, BurstFactor: 4, ParetoShape: 1.5,
	}
	withResp := func(p *Params) { p.RespSender = snd; p.RespFlowID = 2; p.RespBytes = 128 }
	cases := []struct {
		name  string
		model Model
		mut   func(p *Params)
	}{
		{"unknown model", Model("fractal"), func(p *Params) {}},
		{"zero interval", PoissonModel, func(p *Params) { p.Interval = 0 }},
		{"missing rng", PoissonModel, func(p *Params) { p.RNG = nil }},
		{"burst factor <= 1", OnOffModel, func(p *Params) { p.BurstFactor = 1 }},
		{"burst factor unset", ParetoModel, func(p *Params) { p.BurstFactor = 0 }},
		{"burst factor NaN", OnOffModel, func(p *Params) { p.BurstFactor = math.NaN() }},
		{"pareto shape <= 1", ParetoModel, func(p *Params) { p.ParetoShape = 1 }},
		{"reqresp without responder", ReqRespModel, func(p *Params) { withResp(p); p.RespSender = nil }},
		{"reqresp flow collision", ReqRespModel, func(p *Params) { withResp(p); p.RespFlowID = p.FlowID }},
		{"reqresp negative response", ReqRespModel, func(p *Params) { withResp(p); p.RespBytes = -1 }},
		{"reqresp unset response size", ReqRespModel, func(p *Params) { withResp(p); p.RespBytes = 0 }},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		if _, err := NewSource(tc.model, p); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The happy path still works for every registered model.
	for _, m := range Models() {
		p := base
		withResp(&p)
		if _, err := NewSource(m, p); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

// TestParseModel resolves names, defaults the empty string to CBR, and
// rejects unknowns.
func TestParseModel(t *testing.T) {
	if m, err := ParseModel(""); err != nil || m != CBRModel {
		t.Errorf("ParseModel(\"\") = %v, %v", m, err)
	}
	for _, m := range Models() {
		got, err := ParseModel(string(m))
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m, got, err)
		}
	}
	if _, err := ParseModel("fractal"); err == nil {
		t.Error("unknown model accepted")
	}
}
