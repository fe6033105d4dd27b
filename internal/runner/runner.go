// Package runner orchestrates simulation campaigns: declarative grids
// of independent runs (scheme × load × nodes × mobility × fading ×
// seed) executed on a worker pool with deterministic per-run seed
// derivation, streaming JSON-Lines result emission, progress reporting
// and resumable checkpointing. Every figure and ablation of the paper's
// evaluation is expressible as a Campaign value (or a JSON spec file)
// instead of bespoke loop code; the cmd/ binaries are thin layers over
// this package.
package runner

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/mac"
	"repro/internal/scenario"
)

// Variant is a named declarative patch on the base scenario — the
// mechanism behind ablations (disable the control channel, force the
// four-way handshake, change the history expiry, ...). Non-zero fields
// of Patch override the campaign base; explicit grid axes (Schemes,
// LoadsKbps, ...) are applied after the patch and win over it. Only
// the merged scenario is validated, never the patch on its own. A patch
// may not set scheme, offered_load_kbps or seed: the always-applied
// scheme and load axes and the per-run seed would overwrite them.
type Variant struct {
	Name  string              `json:"name"`
	Patch scenario.FileConfig `json:"patch"`
}

// apply overlays the variant's patch onto o (scenario.Overlay).
func (v Variant) apply(o *scenario.Options) error {
	patched, err := scenario.Overlay(*o, v.Patch)
	if err != nil {
		return fmt.Errorf("runner: variant %q: %w", v.Name, err)
	}
	*o = patched
	return nil
}

// checkPatch rejects the patch fields that could never reach a run,
// naming the campaign field that sets each instead.
func (v Variant) checkPatch() error {
	for _, f := range []struct {
		set            bool
		field, instead string
	}{
		{v.Patch.Scheme != "", "scheme", "the schemes axis"},
		{v.Patch.OfferedLoadKbps != 0, "offered_load_kbps", "the loads_kbps axis"},
		{v.Patch.Seed != 0, "seed", "seed_list or base_seed"},
	} {
		if f.set {
			return fmt.Errorf("runner: variant %q: patch field %q never reaches a run; use %s instead", v.Name, f.field, f.instead)
		}
	}
	return nil
}

// Campaign is a declarative grid of simulation runs. Base supplies the
// common scenario; each non-empty axis sweeps one dimension and the
// grid is their cross product. An empty axis keeps the base value. Each
// grid point is replicated Reps times (or once per SeedList entry), and
// every run's random seed is derived deterministically from BaseSeed
// and the run key, so results are reproducible regardless of worker
// count or execution order.
type Campaign struct {
	// Name labels the campaign in specs and output.
	Name string
	// Base is the common scenario; axis values override its fields.
	// Base.Seed is ignored — per-run seeds come from SeedList or
	// DeriveSeed.
	Base scenario.Options

	// Variants is the ablation axis (named declarative patches).
	Variants []Variant
	// Schemes is the protocol axis.
	Schemes []mac.Scheme
	// Axes holds the other sweep axes and the replication settings.
	Axes
}

// Axes are the campaign's sweep axes after variants and schemes, and
// its replication settings. Campaign and its file form CampaignFile
// both embed them, so each field and its spec key is declared once.
type Axes struct {
	// Traffics is the workload-model axis (traffic.Models names:
	// cbr|poisson|onoff|pareto|reqresp).
	Traffics []string `json:"traffics,omitempty"`
	// Topologies is the placement axis (scenario.Topologies names:
	// uniform|grid|clusters|corridor).
	Topologies []string `json:"topologies,omitempty"`
	// LoadsKbps is the offered-load axis.
	LoadsKbps []float64 `json:"loads_kbps,omitempty"`
	// Nodes is the terminal-count axis.
	Nodes []int `json:"nodes,omitempty"`
	// SpeedsMps is the mobility axis (sets SpeedMin = SpeedMax).
	SpeedsMps []float64 `json:"speeds_mps,omitempty"`
	// ShadowingDB is the fading axis (log-normal sigma).
	ShadowingDB []float64 `json:"shadowing_db,omitempty"`
	// SafetyFactors is the PCMAC tolerance-coefficient axis.
	SafetyFactors []float64 `json:"safety_factors,omitempty"`
	// BatteriesJ is the battery-capacity axis in joules per node
	// (0 = mains-powered).
	BatteriesJ []float64 `json:"batteries_j,omitempty"`
	// EnergyProfiles is the radio draw-table axis (energy.Profiles
	// names: wavelan|sensor).
	EnergyProfiles []string `json:"energy_profiles,omitempty"`

	// Reps replicates each grid point with derived seeds (default 1).
	Reps int `json:"reps,omitempty"`
	// SeedList, when non-empty, fixes the per-replication seeds
	// explicitly (overrides Reps and seed derivation).
	SeedList []int64 `json:"seed_list,omitempty"`
	// BaseSeed feeds seed derivation (default 1).
	BaseSeed int64 `json:"base_seed,omitempty"`
}

// Run is one fully parameterized simulation of a campaign.
type Run struct {
	// Index is the position in the campaign's deterministic enumeration.
	Index int
	// Key uniquely and stably identifies the run within the campaign;
	// checkpoint resume matches on it.
	Key string
	// Variant names the ablation patch ("" when the campaign has none).
	Variant string
	// Rep is the replication number within the grid point.
	Rep int
	// Seed is the scenario seed (explicit or derived).
	Seed int64
	// Opts is the complete scenario configuration.
	Opts scenario.Options
}

// PointKey is the run key without the replication suffix — the grid
// point the run replicates.
func (r Run) PointKey() string {
	if i := strings.LastIndex(r.Key, "/rep="); i >= 0 {
		return r.Key[:i]
	}
	return r.Key
}

// DeriveSeed maps a campaign base seed and a run key to a scenario
// seed: FNV-1a over the key mixed with the base seed through a
// splitmix64 finalizer. The derivation is stable across processes,
// platforms and worker counts, and decorrelates neighbouring grid
// points.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64() + uint64(base)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x & 0x7fffffffffffffff)
}

// axis is one dimension of the campaign grid in descriptor form: how
// many values it has, whether it contributes a run-key segment and an
// options override, and how to do both for value i. The grid is the
// cross product of the axes slice in order, so adding a sweep dimension
// is one sweepAxis call in axes() — no re-indented loops, no runKey
// signature change, and unswept axes keep historical keys (and
// therefore old checkpoints) stable.
type axis struct {
	// n is the axis length; unswept axes carry one pseudo-value.
	n int
	// inKey includes the segment in run keys (swept axes, plus the
	// scheme and load axes which have always been part of the key).
	inKey bool
	// seg renders the key segment for value i, e.g. "tr=poisson".
	seg func(i int) string
	// apply overlays value i on the options; nil leaves the base value
	// untouched (unswept axes must not clobber finer-grained base
	// fields, e.g. SpeedMin != SpeedMax).
	apply func(o *scenario.Options, i int) error
	// variantName, set only on the variant axis, labels Run.Variant.
	// Runs() discovers it by scanning, so the axes slice can be
	// reordered or extended without silently mislabelling records.
	variantName func(i int) string
}

// sweepAxis builds the common axis shape: swept (non-empty values)
// axes appear in the key and override the base; unswept ones collapse
// to a single inert value.
func sweepAxis[T any](values []T, tag string, format func(T) string, set func(o *scenario.Options, v T)) axis {
	if len(values) == 0 {
		return axis{n: 1}
	}
	return axis{
		n:     len(values),
		inKey: true,
		seg:   func(i int) string { return tag + "=" + format(values[i]) },
		apply: func(o *scenario.Options, i int) error { set(o, values[i]); return nil },
	}
}

func formatG(v float64) string { return fmt.Sprintf("%g", v) }

// axes expands the campaign's sweep dimensions into descriptor form,
// in the fixed historical nesting order: variant, scheme, traffic,
// topology, load, nodes, speed, shadowing, safety, battery, profile.
func (c Campaign) axes() []axis {
	variants := c.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	schemes := c.Schemes
	if len(schemes) == 0 {
		schemes = []mac.Scheme{c.Base.Scheme}
	}
	loads := c.LoadsKbps
	if len(loads) == 0 {
		loads = []float64{c.Base.OfferedLoadKbps}
	}
	return []axis{
		{
			// The variant axis applies its declarative patch first, so
			// explicit axes win over patch fields.
			n:           len(variants),
			inKey:       len(c.Variants) > 0,
			seg:         func(i int) string { return "v=" + variants[i].Name },
			apply:       func(o *scenario.Options, i int) error { return variants[i].apply(o) },
			variantName: func(i int) string { return variants[i].Name },
		},
		{
			// Scheme and load are always keyed and applied, swept or not
			// — they have identified runs since the first checkpoint
			// format.
			n:     len(schemes),
			inKey: true,
			seg:   func(i int) string { return "s=" + schemes[i].String() },
			apply: func(o *scenario.Options, i int) error { o.Scheme = schemes[i]; return nil },
		},
		sweepAxis(c.Traffics, "tr", func(s string) string { return s },
			func(o *scenario.Options, v string) { o.Traffic = v }),
		sweepAxis(c.Topologies, "top", func(s string) string { return s },
			func(o *scenario.Options, v string) { o.Topology = v }),
		{
			n:     len(loads),
			inKey: true,
			seg:   func(i int) string { return "load=" + formatG(loads[i]) },
			apply: func(o *scenario.Options, i int) error { o.OfferedLoadKbps = loads[i]; return nil },
		},
		sweepAxis(c.Nodes, "n", func(n int) string { return fmt.Sprintf("%d", n) },
			func(o *scenario.Options, v int) { o.Nodes = v }),
		sweepAxis(c.SpeedsMps, "sp", formatG,
			func(o *scenario.Options, v float64) { o.SpeedMin, o.SpeedMax = v, v }),
		sweepAxis(c.ShadowingDB, "sh", formatG,
			func(o *scenario.Options, v float64) { o.ShadowingSigmaDB = v }),
		sweepAxis(c.SafetyFactors, "sf", formatG,
			func(o *scenario.Options, v float64) { o.SafetyFactor = v }),
		sweepAxis(c.BatteriesJ, "bat", formatG,
			func(o *scenario.Options, v float64) { o.BatteryJ = v }),
		sweepAxis(c.EnergyProfiles, "ep", func(s string) string { return s },
			func(o *scenario.Options, v string) { o.EnergyProfile = v }),
	}
}

// Runs expands the campaign grid into its deterministic run list: the
// cross product of the axes() descriptors (variants outermost) with
// replications innermost.
func (c Campaign) Runs() ([]Run, error) {
	for _, load := range c.LoadsKbps {
		if load < 0 {
			return nil, fmt.Errorf("runner: negative load %g", load)
		}
	}
	for _, v := range c.Variants {
		if err := v.checkPatch(); err != nil {
			return nil, err
		}
	}
	axes := c.axes()
	reps := c.Reps
	if len(c.SeedList) > 0 {
		reps = len(c.SeedList)
	}
	if reps <= 0 {
		reps = 1
	}
	baseSeed := c.BaseSeed
	if baseSeed == 0 {
		baseSeed = 1
	}

	var runs []Run
	seen := make(map[string]bool)
	idx := make([]int, len(axes))
	for {
		// Key prefix for this grid point, from the keyed axes in order.
		var b strings.Builder
		for k, ax := range axes {
			if !ax.inKey {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte('/')
			}
			b.WriteString(ax.seg(idx[k]))
		}
		prefix := b.String()

		for rep := 0; rep < reps; rep++ {
			key := fmt.Sprintf("%s/rep=%d", prefix, rep)
			if seen[key] {
				return nil, fmt.Errorf("runner: duplicate run key %q (repeated axis value?)", key)
			}
			seen[key] = true
			opts := c.Base
			for k, ax := range axes {
				if ax.apply == nil {
					continue
				}
				if err := ax.apply(&opts, idx[k]); err != nil {
					return nil, err
				}
			}
			seed := DeriveSeed(baseSeed, key)
			if len(c.SeedList) > 0 {
				seed = c.SeedList[rep]
			}
			opts.Seed = seed
			if err := scenario.Validate(opts); err != nil {
				return nil, fmt.Errorf("runner: run %s: %w", key, err)
			}
			variant := ""
			for k, ax := range axes {
				if ax.variantName != nil {
					variant = ax.variantName(idx[k])
				}
			}
			runs = append(runs, Run{
				Index:   len(runs),
				Key:     key,
				Variant: variant,
				Rep:     rep,
				Seed:    seed,
				Opts:    opts,
			})
		}

		// Odometer increment, last axis fastest (replications are the
		// innermost loop above).
		k := len(axes) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < axes[k].n {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return runs, nil
		}
	}
}

// SingleRun wraps one scenario as a one-run campaign Run, so ad-hoc
// simulations (cmd/pcmacsim) can emit the same JSONL records as full
// campaigns.
func SingleRun(o scenario.Options) Run {
	return Run{
		Key:  fmt.Sprintf("s=%s/load=%g/rep=0", o.Scheme, o.OfferedLoadKbps),
		Seed: o.Seed,
		Opts: o,
	}
}
