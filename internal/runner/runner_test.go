package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// tinyBase is a two-node static link: runs complete in milliseconds.
func tinyBase() scenario.Options {
	return scenario.Options{
		Static:    []geom.Point{{X: 0, Y: 0}, {X: 150, Y: 0}},
		FlowPairs: [][2]packet.NodeID{{0, 1}},
		Duration:  5 * sim.Second,
		Warmup:    sim.Duration(sim.Second),
	}
}

func tinyCampaign() Campaign {
	return Campaign{
		Name:    "tiny",
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
		Axes:    Axes{LoadsKbps: []float64{40, 80}, Reps: 2},
	}
}

func TestRunsExpansion(t *testing.T) {
	runs, err := tinyCampaign().Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 { // 2 schemes × 2 loads × 2 reps
		t.Fatalf("runs = %d, want 8", len(runs))
	}
	keys := make(map[string]bool)
	for i, r := range runs {
		if r.Index != i {
			t.Errorf("run %d has Index %d", i, r.Index)
		}
		if keys[r.Key] {
			t.Errorf("duplicate key %q", r.Key)
		}
		keys[r.Key] = true
		if r.Opts.Seed != r.Seed {
			t.Errorf("run %s: Opts.Seed %d != Seed %d", r.Key, r.Opts.Seed, r.Seed)
		}
	}
	if !keys["s=pcmac/load=80/rep=1"] {
		t.Errorf("expected key missing; have %v", keys)
	}

	// Expansion is deterministic.
	again, err := tinyCampaign().Runs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range runs {
		if runs[i].Key != again[i].Key || runs[i].Seed != again[i].Seed {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, runs[i], again[i])
		}
	}
}

func TestRunsSeedDerivation(t *testing.T) {
	runs, err := tinyCampaign().Runs()
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[int64]string)
	for _, r := range runs {
		if r.Seed <= 0 {
			t.Errorf("run %s: non-positive derived seed %d", r.Key, r.Seed)
		}
		if prev, dup := seeds[r.Seed]; dup {
			t.Errorf("seed collision between %s and %s", prev, r.Key)
		}
		seeds[r.Seed] = r.Key
		if got := DeriveSeed(1, r.Key); got != r.Seed {
			t.Errorf("run %s: seed %d, DeriveSeed gives %d", r.Key, r.Seed, got)
		}
	}

	// A different base seed moves every run's seed.
	c := tinyCampaign()
	c.BaseSeed = 99
	moved, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range moved {
		if moved[i].Seed == runs[i].Seed {
			t.Errorf("run %s: seed unchanged under new base seed", moved[i].Key)
		}
	}
}

func TestRunsSeedList(t *testing.T) {
	c := tinyCampaign()
	c.Reps = 0
	c.SeedList = []int64{7, 11, 13}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 12 { // 2 × 2 × 3 explicit seeds
		t.Fatalf("runs = %d, want 12", len(runs))
	}
	for _, r := range runs {
		want := c.SeedList[r.Rep]
		if r.Seed != want {
			t.Errorf("run %s: seed %d, want %d", r.Key, r.Seed, want)
		}
	}
}

func TestRunsAxes(t *testing.T) {
	c := Campaign{
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.PCMAC},
		Axes: Axes{
			LoadsKbps:   []float64{40},
			SpeedsMps:   []float64{1, 10},
			ShadowingDB: []float64{0, 4},
		},
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	last := runs[3]
	if last.Key != "s=pcmac/load=40/sp=10/sh=4/rep=0" {
		t.Errorf("key = %q", last.Key)
	}
	if last.Opts.SpeedMin != 10 || last.Opts.SpeedMax != 10 || last.Opts.ShadowingSigmaDB != 4 {
		t.Errorf("axis values not applied: %+v", last.Opts)
	}
	if got := last.PointKey(); got != "s=pcmac/load=40/sp=10/sh=4" {
		t.Errorf("PointKey = %q", got)
	}
}

func TestVariantPatch(t *testing.T) {
	c := Campaign{
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.PCMAC},
		Axes:    Axes{LoadsKbps: []float64{40}},
		Variants: []Variant{
			{Name: "stock"},
			{Name: "no-ctrl", Patch: scenario.FileConfig{DisableCtrlChannel: true}},
			{Name: "expiry=1s", Patch: scenario.FileConfig{HistoryExpiryS: 1}},
		},
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
	if runs[0].Opts.DisableCtrlChannel || runs[0].Opts.HistoryExpiry != tinyBase().HistoryExpiry {
		t.Errorf("stock variant mutated: %+v", runs[0].Opts)
	}
	if !runs[1].Opts.DisableCtrlChannel {
		t.Error("no-ctrl patch not applied")
	}
	if runs[2].Opts.HistoryExpiry != sim.DurationOf(1) {
		t.Errorf("expiry patch not applied: %v", runs[2].Opts.HistoryExpiry)
	}
	if !strings.HasPrefix(runs[1].Key, "v=no-ctrl/") {
		t.Errorf("variant missing from key %q", runs[1].Key)
	}
}

func TestDuplicateAxisValueRejected(t *testing.T) {
	c := tinyCampaign()
	c.LoadsKbps = []float64{40, 40}
	if _, err := c.Runs(); err == nil {
		t.Fatal("duplicate load accepted")
	}
}

// TestExecuteDeterministicAcrossWorkers is the tentpole invariant: the
// JSONL stream and the Progress order are byte/value-identical whether
// the campaign ran serially or on a full worker pool.
func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	var serial bytes.Buffer
	var serialKeys []string
	sum1, err := Execute(context.Background(), tinyCampaign(), ExecOptions{
		Workers: 1,
		Out:     &serial,
		Progress: ProgressFunc(func(ev RunEvent) {
			serialKeys = append(serialKeys, ev.Run.Key)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum1.Executed != 8 {
		t.Fatalf("executed %d, want 8", sum1.Executed)
	}
	var parallel bytes.Buffer
	var parallelKeys []string
	sumN, err := Execute(context.Background(), tinyCampaign(), ExecOptions{
		Workers: 8,
		Out:     &parallel,
		Progress: ProgressFunc(func(ev RunEvent) {
			parallelKeys = append(parallelKeys, ev.Run.Key)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sumN.Executed != 8 {
		t.Fatalf("executed %d, want 8", sumN.Executed)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("JSONL differs between 1 and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
	for i := range serialKeys {
		if serialKeys[i] != parallelKeys[i] {
			t.Fatalf("Progress order differs at %d: %s vs %s", i, serialKeys[i], parallelKeys[i])
		}
	}
}

func TestExecuteResume(t *testing.T) {
	var full bytes.Buffer
	if _, err := Execute(context.Background(), tinyCampaign(), ExecOptions{Out: &full}); err != nil {
		t.Fatal(err)
	}
	results, err := LoadResults(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d, want 8", len(results))
	}

	// Resume with the first half checkpointed: only the rest executes,
	// the aggregate over Progress matches the full run exactly —
	// resumed results replay through the same callback.
	completed := ResumeSet(results[:4])
	var rest bytes.Buffer
	var meanT float64
	sum, err := Execute(context.Background(), tinyCampaign(), ExecOptions{
		Out:       &rest,
		Completed: completed,
		Progress:  ProgressFunc(func(ev RunEvent) { meanT += ev.Result.ThroughputKbps / 8 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 4 || sum.Executed != 4 || sum.Total != 8 {
		t.Fatalf("summary = %+v, want 4 skipped / 4 executed of 8", sum)
	}
	restResults, err := LoadResults(bytes.NewReader(rest.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(restResults) != 4 {
		t.Fatalf("re-executed results = %d, want 4", len(restResults))
	}
	for i, r := range restResults {
		if r.Key != results[4+i].Key {
			t.Errorf("resumed run %d key = %q, want %q", i, r.Key, results[4+i].Key)
		}
	}

	var wantMean float64
	for _, r := range results {
		wantMean += r.ThroughputKbps / 8
	}
	if math.Abs(meanT-wantMean) > 1e-9 {
		t.Errorf("resumed aggregate mean = %g, fresh = %g", meanT, wantMean)
	}
}

func TestExecuteRejectsStaleCheckpoint(t *testing.T) {
	var full bytes.Buffer
	if _, err := Execute(context.Background(), tinyCampaign(), ExecOptions{Out: &full}); err != nil {
		t.Fatal(err)
	}
	results, err := LoadResults(bytes.NewReader(full.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Same keys, different base seed: every derived seed moves, so the
	// checkpoint must be rejected rather than silently reused.
	c := tinyCampaign()
	c.BaseSeed = 99
	if _, err := Execute(context.Background(), c, ExecOptions{Completed: ResumeSet(results)}); err == nil {
		t.Fatal("checkpoint from a different base seed accepted")
	}

	// Same seeds, different horizon: also rejected.
	c = tinyCampaign()
	c.Base.Duration = 10 * sim.Second
	c.Base.Warmup = sim.Duration(sim.Second)
	if _, err := Execute(context.Background(), c, ExecOptions{Completed: ResumeSet(results)}); err == nil {
		t.Fatal("checkpoint from a different duration accepted")
	}
}

func TestRunsRejectsInvalidExpansion(t *testing.T) {
	c := tinyCampaign()
	c.Base.Static = nil
	c.Base.FlowPairs = nil
	c.Nodes = []int{-5}
	if _, err := c.Runs(); err == nil {
		t.Fatal("negative node count accepted")
	}
	c = tinyCampaign()
	c.Variants = []Variant{{Name: "bad", Patch: scenario.FileConfig{WarmupS: 50}}}
	if _, err := c.Runs(); err == nil {
		t.Fatal("warmup beyond duration accepted")
	}
}

func TestLoadResultsRejectsInteriorGarbage(t *testing.T) {
	in := `{"key":"a"}` + "\nnot json\n" + `{"key":"b"}` + "\n"
	if _, err := LoadResults(strings.NewReader(in)); err == nil {
		t.Fatal("interior garbage accepted")
	}
}

func TestExecuteProgress(t *testing.T) {
	var dones []int
	_, err := Execute(context.Background(), tinyCampaign(), ExecOptions{
		Workers:  4,
		Progress: ProgressFunc(func(ev RunEvent) { dones = append(dones, ev.Done) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 8 {
		t.Fatalf("progress calls = %d, want 8", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress out of order: %v", dones)
		}
	}
}

func TestAggregate(t *testing.T) {
	agg := NewAggregate()
	var out bytes.Buffer
	// Aggregate implements Progress directly.
	if _, err := Execute(context.Background(), tinyCampaign(), ExecOptions{Out: &out, Progress: agg}); err != nil {
		t.Fatal(err)
	}
	pts := agg.Points()
	if len(pts) != 4 { // 2 schemes × 2 loads, reps folded
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.Throughput.N() != 2 {
			t.Errorf("point %s has %d samples, want 2", p.Label, p.Throughput.N())
		}
		// Unsaturated single link: throughput tracks offered load.
		load := 40.0
		if strings.Contains(p.Label, "load=80") {
			load = 80
		}
		if m := p.Throughput.Mean(); m < load*0.9 || m > load*1.1 {
			t.Errorf("point %s throughput = %.1f, want ≈%.0f", p.Label, m, load)
		}
	}
	var tbl, csv bytes.Buffer
	if err := agg.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "s=pcmac/load=80") {
		t.Errorf("table missing point label:\n%s", tbl.String())
	}
	if err := agg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(csv.String()), "\n"); len(lines) != 5 {
		t.Errorf("csv lines = %d, want header + 4", len(lines))
	}
}

func TestCampaignFileRoundTrip(t *testing.T) {
	c := Campaign{
		Name: "rt",
		Base: scenario.Options{
			Scheme:   mac.PCMAC,
			Nodes:    10,
			Duration: 5 * sim.Second,
			Warmup:   sim.Duration(sim.Second),
		},
		Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
		Axes: Axes{
			LoadsKbps:     []float64{100, 200},
			SpeedsMps:     []float64{1, 3},
			SafetyFactors: []float64{0.5, 0.9},
			Reps:          3,
			BaseSeed:      42,
		},
		Variants: []Variant{{Name: "x", Patch: scenario.FileConfig{DisableThreeWay: true}}},
	}
	b, err := json.Marshal(c.File())
	if err != nil {
		t.Fatal(err)
	}
	var cf CampaignFile
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatal(err)
	}
	back, err := cf.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	gotRuns, err := back.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRuns) != len(wantRuns) {
		t.Fatalf("round-trip runs = %d, want %d", len(gotRuns), len(wantRuns))
	}
	for i := range wantRuns {
		if gotRuns[i].Key != wantRuns[i].Key || gotRuns[i].Seed != wantRuns[i].Seed {
			t.Errorf("round-trip run %d: %s/%d, want %s/%d",
				i, gotRuns[i].Key, gotRuns[i].Seed, wantRuns[i].Key, wantRuns[i].Seed)
		}
	}
}

func TestLoadCampaignSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	spec := `{
		"name": "mini",
		"base": {"scheme": "basic", "duration_s": 5, "warmup_s": 1,
		         "static": [[0,0],[150,0]], "flow_pairs": [[0,1]]},
		"schemes": ["basic", "pcmac"],
		"loads_kbps": [40],
		"reps": 2
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("spec runs = %d, want 4", len(runs))
	}
	if len(runs[0].Opts.Static) != 2 {
		t.Errorf("spec static topology lost: %+v", runs[0].Opts)
	}
}

func TestPresetsExpand(t *testing.T) {
	for _, name := range PresetNames() {
		c, err := Preset(name, 5, 2, []float64{40})
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		runs, err := c.Runs()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if len(runs) == 0 {
			t.Errorf("preset %s expands to zero runs", name)
		}
	}
	if _, err := Preset("nope", 5, 1, nil); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestSingleRunRecord(t *testing.T) {
	opts := tinyBase()
	opts.Scheme = mac.PCMAC
	opts.OfferedLoadKbps = 40
	opts.Seed = 3
	run := SingleRun(opts)
	res, err := scenario.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := ResultOf(run, res)
	if rec.Scheme != "pcmac" || rec.LoadKbps != 40 || rec.Seed != 3 {
		t.Errorf("record = %+v", rec)
	}
	if rec.ThroughputKbps <= 0 {
		t.Errorf("throughput = %g", rec.ThroughputKbps)
	}
	// The energy subsystem's JSONL invariants: the full-radio budget
	// strictly exceeds the radiated-only integral, the state split adds
	// up, and the alive timeline is never empty.
	if rec.ConsumedEnergyJ <= rec.RadiatedEnergyJ {
		t.Errorf("consumed %g J <= radiated %g J", rec.ConsumedEnergyJ, rec.RadiatedEnergyJ)
	}
	split := rec.EnergyTxJ + rec.EnergyRxJ + rec.EnergyIdleJ + rec.EnergyOverhearJ
	if d := rec.ConsumedEnergyJ - split; d > 1e-9 || d < -1e-9 {
		t.Errorf("state split %g J != consumed %g J", split, rec.ConsumedEnergyJ)
	}
	if len(rec.AliveTimeline) == 0 || rec.AliveTimeline[0][1] != float64(rec.Nodes) {
		t.Errorf("alive timeline = %v", rec.AliveTimeline)
	}
}

// TestExecuteRepeatDeterministic requires byte-identical JSONL on
// every execution of the same campaign. The cbr-mobile case is the
// regression test for the fixed-order float summation in the radio's
// interference tracking: before the arrival bookkeeping moved from a
// map to an ordered slice, in-band power was summed in Go's randomised
// map iteration order, so two runs of the same campaign could round
// differently and diverge. The bursty-clustered case extends the same
// contract to the stochastic workload models and generated placements:
// every source's RNG and the topology generator's draws must derive
// from the run seed alone.
func TestExecuteRepeatDeterministic(t *testing.T) {
	base := scenario.Options{
		Duration: 2 * sim.Second,
		Warmup:   sim.Duration(sim.Second / 2),
	}
	cases := []struct {
		name string
		c    Campaign
	}{
		{
			name: "cbr-mobile",
			c: Campaign{
				Name:    "repeat50",
				Base:    withNodes(base, 50),
				Schemes: []mac.Scheme{mac.PCMAC},
				Axes:    Axes{LoadsKbps: []float64{400}, Reps: 1},
			},
		},
		{
			name: "bursty-clustered",
			c: Campaign{
				Name:    "repeat-bursty",
				Base:    withNodes(base, 30),
				Schemes: []mac.Scheme{mac.PCMAC},
				Axes: Axes{
					Traffics:   []string{"poisson", "onoff", "pareto", "reqresp"},
					Topologies: []string{"clusters"},
					LoadsKbps:  []float64{300},
					Reps:       1,
				},
			},
		},
		{
			// The lifetime case extends the contract to the battery
			// feedback path: with 1 J WaveLAN-class batteries most of the
			// 30 nodes die mid-run (idle draw alone empties them at
			// ~1.35 s of the 2 s horizon), so death timers, radio
			// power-off, MAC halts and AODV re-routing must all replay
			// byte-identically; the sensor-profile grid point exercises
			// the no-deaths branch of the same axes.
			name: "lifetime-battery",
			c: Campaign{
				Name:    "repeat-lifetime",
				Base:    withNodes(base, 30),
				Schemes: []mac.Scheme{mac.PCMAC},
				Axes: Axes{
					LoadsKbps:      []float64{300},
					BatteriesJ:     []float64{1},
					EnergyProfiles: []string{"wavelan", "sensor"},
					Reps:           1,
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first bytes.Buffer
			if _, err := Execute(context.Background(), tc.c, ExecOptions{Workers: 2, Out: &first}); err != nil {
				t.Fatal(err)
			}
			if first.Len() == 0 {
				t.Fatal("campaign emitted nothing")
			}
			for i := 0; i < 2; i++ {
				var again bytes.Buffer
				if _, err := Execute(context.Background(), tc.c, ExecOptions{Workers: 2, Out: &again}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first.Bytes(), again.Bytes()) {
					t.Fatalf("execution %d JSONL differs from the first:\n--- first ---\n%s--- again ---\n%s",
						i+2, first.String(), again.String())
				}
			}
		})
	}
}

// TestScalePresetShape pins the scale preset's constant-density
// contract: every node-count variant grows the field as sqrt(n/50) and
// keeps flows at the paper's 1:5 ratio, and no grid point smuggles
// PCMAC past its 8-bit control-frame ID space.
func TestScalePresetShape(t *testing.T) {
	c, err := Preset("scale", 5, 1, []float64{250})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	wantField := map[int]float64{200: 2000, 500: 3162, 1000: 4472, 2000: 6325}
	seen := map[int]bool{}
	for _, r := range runs {
		o := r.Opts
		f, ok := wantField[o.Nodes]
		if !ok {
			t.Fatalf("run %s: unexpected node count %d", r.Key, o.Nodes)
		}
		seen[o.Nodes] = true
		if o.FieldW != f || o.FieldH != f {
			t.Errorf("run %s: field %gx%g, want %gx%g (constant density)", r.Key, o.FieldW, o.FieldH, f, f)
		}
		if o.Flows != o.Nodes/5 {
			t.Errorf("run %s: %d flows for %d nodes, want 1:5", r.Key, o.Flows, o.Nodes)
		}
		if o.Scheme == mac.PCMAC {
			t.Errorf("run %s: pcmac cannot address %d nodes (8-bit control frame ID)", r.Key, o.Nodes)
		}
	}
	if len(seen) != len(wantField) {
		t.Fatalf("preset covered sizes %v, want all of %v", seen, wantField)
	}
}

// TestEnergyAxes covers the two descriptor-driven energy axes: key
// segments appear only when swept (so historical checkpoints keep
// resolving), in the fixed bat=/ep= position, and the values land in
// the expanded options.
func TestEnergyAxes(t *testing.T) {
	c := Campaign{
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.PCMAC},
		Axes: Axes{
			LoadsKbps:      []float64{40},
			BatteriesJ:     []float64{0, 5},
			EnergyProfiles: []string{"wavelan", "sensor"},
		},
	}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	last := runs[3]
	if last.Key != "s=pcmac/load=40/bat=5/ep=sensor/rep=0" {
		t.Fatalf("key = %q", last.Key)
	}
	if last.Opts.BatteryJ != 5 || last.Opts.EnergyProfile != "sensor" {
		t.Fatalf("opts = %+v", last.Opts)
	}
	if runs[0].Opts.BatteryJ != 0 || runs[0].Opts.EnergyProfile != "wavelan" {
		t.Fatalf("first opts = %+v", runs[0].Opts)
	}

	// Unswept: the base carries the fields, keys stay in the historical
	// format with no energy segments.
	base := tinyBase()
	base.BatteryJ = 3
	base.EnergyProfile = "sensor"
	plain := Campaign{Base: base, Schemes: []mac.Scheme{mac.PCMAC}, Axes: Axes{LoadsKbps: []float64{40}}}
	runs, err = plain.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Key != "s=pcmac/load=40/rep=0" {
		t.Fatalf("unswept key = %q", runs[0].Key)
	}
	if runs[0].Opts.BatteryJ != 3 || runs[0].Opts.EnergyProfile != "sensor" {
		t.Fatalf("unswept opts lost base energy fields: %+v", runs[0].Opts)
	}

	// A bad profile on the axis is a spec error at expansion time.
	bad := Campaign{Base: tinyBase(), Schemes: []mac.Scheme{mac.PCMAC}, Axes: Axes{LoadsKbps: []float64{40}, EnergyProfiles: []string{"nuclear"}}}
	if _, err := bad.Runs(); err == nil {
		t.Fatal("unknown energy profile accepted")
	}
}

// TestEnergyAxesSpecRoundTrip requires the new axes to survive the JSON
// spec form.
func TestEnergyAxesSpecRoundTrip(t *testing.T) {
	c := Campaign{
		Name:    "rt",
		Base:    tinyBase(),
		Schemes: []mac.Scheme{mac.Basic},
		Axes: Axes{
			LoadsKbps:      []float64{40},
			BatteriesJ:     []float64{10, 20},
			EnergyProfiles: []string{"sensor"},
		},
	}
	back, err := c.File().Campaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(back.BatteriesJ) != 2 || back.BatteriesJ[1] != 20 || len(back.EnergyProfiles) != 1 {
		t.Fatalf("round trip lost energy axes: %+v", back)
	}
	a, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Runs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Seed != b[i].Seed {
			t.Fatalf("run %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

// withNodes returns base with the node count set.
func withNodes(base scenario.Options, n int) scenario.Options {
	base.Nodes = n
	return base
}
