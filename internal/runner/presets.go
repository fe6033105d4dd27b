package runner

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mac"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// DefaultLoads is the offered-load axis the paper's Figure 8/9 sweep
// uses on this substrate: it saturates earlier than ns-2, so the
// interesting region sits below the paper's 1000 kbps.
func DefaultLoads() []float64 {
	return []float64{200, 250, 300, 350, 400, 450, 500, 550}
}

// evalBase is the paper's Section IV scenario with a configurable
// horizon: 50 random-waypoint nodes on 1000x1000 m, 10 CBR pairs. The
// 5 s route-establishment warmup shrinks to a quarter of short horizons
// so quick runs keep a non-empty measurement window.
func evalBase(durationS float64) scenario.Options {
	warmupS := 5.0
	if durationS < 4*warmupS {
		warmupS = durationS / 4
	}
	return scenario.Options{
		Duration: sim.DurationOf(durationS),
		Warmup:   sim.DurationOf(warmupS),
	}
}

// presetFunc builds a built-in campaign grid for a horizon; Preset adds
// the offered-load axis and the replication count every preset shares.
type presetFunc func(durationS float64) Campaign

var presets = map[string]presetFunc{
	// fig8/fig9 share one grid; the figures differ only in which metric
	// is plotted (throughput vs delay).
	"fig8": func(d float64) Campaign {
		return Campaign{Name: "fig8", Base: evalBase(d), Schemes: mac.Schemes()}
	},
	"fig9": func(d float64) Campaign {
		return Campaign{Name: "fig9", Base: evalBase(d), Schemes: mac.Schemes()}
	},
	// fading overlays log-normal shadowing — the fluctuation the paper's
	// 0.7 safety coefficient anticipates.
	"fading": func(d float64) Campaign {
		return Campaign{
			Name:    "fading",
			Base:    evalBase(d),
			Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
			Axes:    Axes{ShadowingDB: []float64{0, 2, 4, 6}},
		}
	},
	// mobility sweeps node speed from pedestrian to vehicular.
	"mobility": func(d float64) Campaign {
		return Campaign{
			Name:    "mobility",
			Base:    evalBase(d),
			Schemes: mac.Schemes(),
			Axes:    Axes{SpeedsMps: []float64{1, 3, 10, 20}},
		}
	},
	// density sweeps terminal count at fixed field size.
	"density": func(d float64) Campaign {
		return Campaign{
			Name:    "density",
			Base:    evalBase(d),
			Schemes: mac.Schemes(),
			Axes:    Axes{Nodes: []int{25, 50, 75, 100}},
		}
	},
	// bursty sweeps the workload-model axis: the same mean load shaped
	// as constant-rate, memoryless, bursty and heavy-tailed streams.
	"bursty": func(d float64) Campaign {
		return Campaign{
			Name:    "bursty",
			Base:    evalBase(d),
			Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
			Axes:    Axes{Traffics: []string{"cbr", "poisson", "onoff", "pareto"}},
		}
	},
	// clustered sweeps the placement axis: the paper's uniform layout
	// against lattices, hotspot clusters and a multihop corridor.
	"clustered": func(d float64) Campaign {
		return Campaign{
			Name:    "clustered",
			Base:    evalBase(d),
			Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
			Axes:    Axes{Topologies: scenario.Topologies()},
		}
	},
	// scale pushes the substrate into the 200-2000 node regime the
	// spatial neighbor index exists for. Each variant grows the field
	// with the terminal count so the paper's density (one node per
	// 20000 m^2) — and therefore the per-node neighborhood — stays
	// fixed, and scales the flow count at the paper's 1:5 ratio.
	// Placements come from the grid/clusters generators (pinned, so
	// huge runs skip waypoint bookkeeping) under memoryless poisson
	// traffic. Schemes: 802.11 against scheme 2 (all-frames minimum
	// power) — PCMAC's Figure 7 control frame addresses 8-bit node IDs,
	// so the paper's headline protocol tops out at 256 terminals.
	"scale": func(d float64) Campaign {
		return Campaign{
			Name:     "scale",
			Base:     evalBase(d),
			Schemes:  []mac.Scheme{mac.Basic, mac.Scheme2},
			Variants: scaleVariants(),
			Axes: Axes{
				Topologies: []string{scenario.TopologyGrid, scenario.TopologyClusters},
				Traffics:   []string{"poisson"},
			},
		}
	},
	// lifetime gives every node a battery and compares how long the
	// network lives under plain 802.11 versus the power-controlled MAC:
	// time-to-first-death, the alive-node curve, and the consumed-energy
	// split. Capacities are sized against the WaveLAN-class draw
	// (~0.74 W idle) so deaths start mid-run at the default 100 s
	// horizon; scale them with -duration for longer studies.
	"lifetime": func(d float64) Campaign {
		return Campaign{
			Name:    "lifetime",
			Base:    evalBase(d),
			Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
			Axes:    Axes{BatteriesJ: []float64{40, 80}},
		}
	},
	// reqresp exercises bidirectional request-response exchange, where
	// both directions' delays (and the percentile tails) matter.
	"reqresp": func(d float64) Campaign {
		return Campaign{
			Name:    "reqresp",
			Base:    evalBase(d),
			Schemes: mac.Schemes(),
			Axes:    Axes{Traffics: []string{"reqresp"}},
		}
	},
	"ablation-safety":   ablationPreset("safety"),
	"ablation-ctrl":     ablationPreset("ctrl"),
	"ablation-threeway": ablationPreset("threeway"),
	"ablation-expiry":   ablationPreset("expiry"),
	"ablation-ctrlbw":   ablationPreset("ctrlbw"),
}

// scaleVariants builds the scale preset's node-count axis as variants
// rather than a Nodes sweep: each step must also patch the field
// dimensions (constant density) and the flow count (constant 1:5
// flows-to-nodes ratio), which a bare terminal-count axis cannot
// express.
func scaleVariants() []Variant {
	var vs []Variant
	for _, n := range []int{200, 500, 1000, 2000} {
		// Field edge for the paper's density: 1000 m * sqrt(n/50),
		// rounded to whole metres to keep spec files tidy.
		edge := math.Round(1000 * math.Sqrt(float64(n)/50))
		vs = append(vs, Variant{
			Name: fmt.Sprintf("n=%d", n),
			Patch: scenario.FileConfig{
				Nodes:  n,
				FieldW: edge,
				FieldH: edge,
				Flows:  n / 5,
			},
		})
	}
	return vs
}

// ablationPreset adapts an ablation grid to the preset signature. The
// kind names here are the switch cases of ablation(); an unknown kind
// panics at package init via TestPresetsExpand rather than running an
// empty grid.
func ablationPreset(kind string) presetFunc {
	return func(d float64) Campaign {
		c, err := ablation(kind, evalBase(d))
		if err != nil {
			panic(err)
		}
		return c
	}
}

// PresetNames lists the built-in campaigns, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset builds a built-in campaign. durationS is the simulated horizon
// per run (the paper uses 400 s), reps the replications per grid point,
// and loads the offered-load axis (nil takes DefaultLoads).
func Preset(name string, durationS float64, reps int, loads []float64) (Campaign, error) {
	f, ok := presets[name]
	if !ok {
		return Campaign{}, fmt.Errorf("runner: unknown preset %q (have %v)", name, PresetNames())
	}
	if loads == nil {
		loads = DefaultLoads()
	}
	if reps <= 0 {
		reps = 1
	}
	c := f(durationS)
	c.LoadsKbps = loads
	c.Reps = reps
	return c, nil
}

// ablation builds one PCMAC design-knob grid — safety factor, control
// channel, three-way handshake, history expiry or control bandwidth —
// as a declarative campaign, before Preset adds its loads and reps.
func ablation(kind string, base scenario.Options) (Campaign, error) {
	c := Campaign{
		Name:    "ablation-" + kind,
		Base:    base,
		Schemes: []mac.Scheme{mac.PCMAC},
	}
	switch kind {
	case "safety":
		c.SafetyFactors = []float64{0.5, 0.7, 0.9, 1.0}
	case "ctrl":
		c.Variants = []Variant{
			{Name: "pcmac"},
			{Name: "pcmac-no-ctrl", Patch: scenario.FileConfig{DisableCtrlChannel: true}},
		}
	case "threeway":
		c.Variants = []Variant{
			{Name: "pcmac"},
			{Name: "pcmac-four-way", Patch: scenario.FileConfig{DisableThreeWay: true}},
		}
	case "expiry":
		c.Variants = []Variant{
			{Name: "expiry=1s", Patch: scenario.FileConfig{HistoryExpiryS: 1}},
			{Name: "expiry=3s", Patch: scenario.FileConfig{HistoryExpiryS: 3}},
			{Name: "expiry=10s", Patch: scenario.FileConfig{HistoryExpiryS: 10}},
		}
	case "ctrlbw":
		c.Variants = []Variant{
			{Name: "bw=125k", Patch: scenario.FileConfig{CtrlBandwidthBps: 125e3}},
			{Name: "bw=250k", Patch: scenario.FileConfig{CtrlBandwidthBps: 250e3}},
			{Name: "bw=500k", Patch: scenario.FileConfig{CtrlBandwidthBps: 500e3}},
			{Name: "bw=2000k", Patch: scenario.FileConfig{CtrlBandwidthBps: 2e6}},
		}
	default:
		return Campaign{}, fmt.Errorf("runner: unknown ablation %q (want safety|ctrl|threeway|expiry|ctrlbw)", kind)
	}
	return c, nil
}
