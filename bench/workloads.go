package main

import (
	"repro/internal/mac"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// A workload is one closed-loop op: a whole simulation (or a whole
// campaign) built from the seed, run to its horizon and encoded as
// JSONL. horizon scales every simulated time, traffic start included,
// so the smoke test can drive the same code paths at a fraction of the
// cost.
//
// The horizons are short (a whole run takes about 2 s on a 2-vCPU
// host) so that one measurement holds many whole runs: their cost
// varies by 10-30% with the scenario seed, and only a median over
// many of them stays put from one benchmark seed to the next.
type workload struct {
	name string
	// opSeconds is about the time one timed op takes, child process,
	// set-up builds and speed probe included, on the 2-vCPU host of
	// results/ at host speed 1 (see speed.go). A run of --seconds makes
	// --seconds/opSeconds ops (fewer only past a deadline of 1.2 ×
	// --seconds), a count fixed in advance so that a seed always covers
	// the same instances: ending on a clock instead would let host speed
	// choose how many, and so which inputs, the median is taken over.
	opSeconds float64
	// Exactly one of single and campaign is set.
	single   func(seed int64, horizon float64) scenario.Options
	campaign func(seed int64, horizon float64) runner.Campaign
}

// campaignWorkers is the campaign workload's pool size; it is capped at
// the host's CPU count when the op runs.
const campaignWorkers = 2

// workloads lists the benchmark's ops in round-robin order. None of them
// sets Options.Regions or EventQueue: they measure the sequential
// scheduler on its default calendar queue. Why each was chosen is in
// BENCHMARK.json and README.md.
var workloads = []workload{
	{
		// The paper's Fig 8 point; the only workload with the control
		// channel, and a shallow queue.
		name:      "paper-fig8",
		opSeconds: 1.75,
		single: func(seed int64, h float64) scenario.Options {
			return scenario.Options{
				Scheme:          mac.PCMAC,
				OfferedLoadKbps: 400,
				Duration:        sim.DurationOf(50 * h),
				Warmup:          sim.DurationOf(2.5 * h),
				TrafficStart:    trafficStart(h),
				Seed:            seed,
			}
		},
	},
	{
		// Motion keeps invalidating link rows and grid cells.
		name:      "scale500-mobile",
		opSeconds: 1.75,
		single: func(seed int64, h float64) scenario.Options {
			return scenario.Options{
				Scheme:          mac.Basic,
				Nodes:           500,
				FieldW:          3162,
				FieldH:          3162,
				Flows:           100,
				Traffic:         "poisson",
				OfferedLoadKbps: 250,
				Duration:        sim.DurationOf(2 * h),
				Warmup:          sim.DurationOf(0.5 * h),
				TrafficStart:    trafficStart(h),
				Seed:            seed,
			}
		},
	},
	{
		// The deepest queue and 400 concurrent route floods; link rows
		// are built once.
		name:      "scale2000-static",
		opSeconds: 1.65,
		single: func(seed int64, h float64) scenario.Options {
			return scenario.Options{
				Scheme:          mac.Scheme2,
				Nodes:           2000,
				FieldW:          6325,
				FieldH:          6325,
				Flows:           400,
				Traffic:         "poisson",
				Topology:        scenario.TopologyGrid,
				OfferedLoadKbps: 250,
				Duration:        sim.DurationOf(1 * h),
				Warmup:          sim.DurationOf(0.25 * h),
				TrafficStart:    trafficStart(h),
				Seed:            seed,
			}
		},
	},
	{
		// Runs/s as a campaign user sees it, with two runs sharing a heap.
		name:      "campaign-fig8",
		opSeconds: 2.35,
		campaign: func(seed int64, h float64) runner.Campaign {
			c, err := runner.Preset("fig8", 7.5*h, 2, []float64{300, 500})
			if err != nil {
				panic(err) // fig8 is a built-in preset
			}
			c.Base.TrafficStart = trafficStart(h)
			c.BaseSeed = seed
			return c
		},
	},
}

// trafficStart moves the sources' start (1 s by default) to 0.5 s, in
// proportion to the shortened horizons.
func trafficStart(horizon float64) sim.Time { return sim.Time(sim.DurationOf(0.5 * horizon)) }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
