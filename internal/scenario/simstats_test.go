package scenario

import (
	"testing"

	"repro/internal/sim"
)

// TestSimStatsSound is the sink-invariance proof the telemetry layer
// rests on: a run with the scheduler's
// depth tracking attached must be bit-identical — events, RNG streams,
// every metric — to the same run without it. The only permitted
// difference is the new PeakQueue observation itself.
func TestSimStatsSound(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"mobile", mobileOpts(0)},
		{"fading", mobileOpts(6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := Run(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			o := c.opts
			o.CollectSimStats = true
			observed, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Events == 0 {
				t.Fatal("empty run proves nothing")
			}
			equalResults(t, c.name, plain, observed)
			if plain.PeakQueue != 0 {
				t.Errorf("PeakQueue = %d without the sink, want 0", plain.PeakQueue)
			}
			if observed.PeakQueue <= 0 {
				t.Errorf("PeakQueue = %d with the sink, want > 0", observed.PeakQueue)
			}
			// Sanity: a 20-node run keeps far more than one event in
			// flight; a peak of 1 would mean the hook is misplaced.
			if observed.PeakQueue < 10 {
				t.Errorf("PeakQueue = %d, implausibly shallow for %d nodes", observed.PeakQueue, observed.Opts.Nodes)
			}
		})
	}
}

// TestSimStatsDeterministic: the peak depth itself is a deterministic
// function of the run — same seed, same trace, same peak — so it is
// safe to emit into checkpointed JSONL.
func TestSimStatsDeterministic(t *testing.T) {
	o := mobileOpts(0)
	o.CollectSimStats = true
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakQueue != b.PeakQueue {
		t.Errorf("PeakQueue %d != %d across identical runs", a.PeakQueue, b.PeakQueue)
	}
}

// mobileOpts is a deliberately mobile, short scenario: nodes are in
// flight for most of the run and move fast, so the spatial index's
// cells go stale quickly — the worst case for invalidation bugs.
func mobileOpts(shadowSigma float64) Options {
	return Options{
		Nodes:            20,
		FieldW:           600,
		FieldH:           600,
		SpeedMin:         20, // fast movement: positions change every instant
		SpeedMax:         20,
		Pause:            sim.Second / 2,
		Flows:            5,
		OfferedLoadKbps:  200,
		Duration:         3 * sim.Second,
		Warmup:           sim.Duration(sim.Second / 2),
		Seed:             7,
		ShadowingSigmaDB: shadowSigma,
	}
}

// equalResults compares every float an observer that leaked into the
// run could perturb. Equality must be exact.
func equalResults(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a.Events != b.Events {
		t.Errorf("%s: events %d != %d", name, a.Events, b.Events)
	}
	pairs := []struct {
		what string
		x, y float64
	}{
		{"throughput", a.ThroughputKbps, b.ThroughputKbps},
		{"delay", a.AvgDelayMs, b.AvgDelayMs},
		{"pdr", a.PDR, b.PDR},
		{"fairness", a.JainFairness, b.JainFairness},
		{"energy", a.RadiatedEnergyJ, b.RadiatedEnergyJ},
		{"ctrlEnergy", a.CtrlRadiatedEnergyJ, b.CtrlRadiatedEnergyJ},
	}
	for _, p := range pairs {
		if p.x != p.y {
			t.Errorf("%s: %s %v != %v", name, p.what, p.x, p.y)
		}
	}
	if a.MAC != b.MAC {
		t.Errorf("%s: MAC stats diverge:\n  a %+v\n  b %+v", name, a.MAC, b.MAC)
	}
}
