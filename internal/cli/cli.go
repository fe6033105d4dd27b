// Package cli is the campaign-construction flag group shared by
// cmd/campaign and cmd/campaignd: one -spec/-preset resolver plus the
// axis-override flags (-loads, -traffic, -topology, -variants,
// -battery, -energy-profile), so both binaries accept the same
// campaign vocabulary and resolve it identically. cmd/campaign used to
// carry this logic inline; the daemon made it shared.
package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/runner"
)

// CampaignFlags collects the flags that select and reshape a campaign.
// Register them on a FlagSet, flag.Parse, then Build.
type CampaignFlags struct {
	Spec          string
	Preset        string
	DurationS     float64
	Seeds         int
	Loads         string
	Traffic       string
	Topology      string
	Variants      string
	Battery       string
	EnergyProfile string
}

// Register installs the flag group on fs.
func (f *CampaignFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Spec, "spec", "", "campaign spec JSON file")
	fs.StringVar(&f.Preset, "preset", "", "built-in campaign: "+strings.Join(runner.PresetNames(), "|"))
	fs.Float64Var(&f.DurationS, "duration", 100, "preset: simulated seconds per run (paper: 400)")
	fs.IntVar(&f.Seeds, "seeds", 3, "preset: replications per grid point")
	fs.StringVar(&f.Loads, "loads", "", "preset: offered-load axis in kbps (default 200..550)")
	fs.StringVar(&f.Traffic, "traffic", "", "override the workload-model axis (csv of cbr|poisson|onoff|pareto|reqresp)")
	fs.StringVar(&f.Topology, "topology", "", "override the placement axis (csv of uniform|grid|clusters|corridor)")
	fs.StringVar(&f.Variants, "variants", "", "keep only the named variants of the campaign's variant axis (csv, e.g. n=500)")
	fs.StringVar(&f.Battery, "battery", "", "override the battery-capacity axis (csv of joules per node)")
	fs.StringVar(&f.EnergyProfile, "energy-profile", "", "override the radio draw-profile axis (csv of wavelan|sensor)")
}

// Given reports whether a campaign was selected at all (daemons treat
// the group as optional; cmd/campaign requires it).
func (f *CampaignFlags) Given() bool { return f.Spec != "" || f.Preset != "" }

// BindExec installs the fault-tolerance flags shared by cmd/campaign
// and cmd/campaignd straight onto opts: how often a failing run is
// retried, how long a run may hang before the watchdog quarantines it,
// and whether resume re-attempts previously quarantined runs.
func BindExec(fs *flag.FlagSet, opts *runner.ExecOptions) {
	fs.IntVar(&opts.Retries, "retries", 0, "re-attempts per run before quarantining it as a failed record")
	fs.DurationVar(&opts.RunTimeout, "run-timeout", 0, "per-run watchdog; a run exceeding it fails the attempt (0 = none)")
	fs.BoolVar(&opts.NoRetryFailed, "no-retry-failed", false, "on resume, keep quarantined runs instead of re-attempting them")
}

// LogFlags is the structured-logging flag group shared by cmd/campaign
// and cmd/campaignd: a level threshold and the text/JSON handler
// choice.
type LogFlags struct {
	Level string
	JSON  bool
}

// Register installs the logging flag group on fs.
func (f *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Level, "log-level", "info", "log threshold: debug|info|warn|error")
	fs.BoolVar(&f.JSON, "log-json", false, "emit logs as JSON lines instead of text")
}

// Logger builds the slog.Logger the flags describe, writing to w.
func (f *LogFlags) Logger(w io.Writer) (*slog.Logger, error) {
	level, err := obs.ParseLevel(f.Level)
	if err != nil {
		return nil, fmt.Errorf("bad -log-level: %w", err)
	}
	return obs.NewLogger(w, level, f.JSON), nil
}

// Build resolves the flag group into a Campaign: -spec or -preset
// first, then the axis overrides, so any campaign can be re-shaped
// from the command line.
func (f *CampaignFlags) Build() (runner.Campaign, error) {
	camp, err := f.base()
	if err != nil {
		return runner.Campaign{}, err
	}
	if vals := SplitCSV(f.Traffic); len(vals) > 0 {
		camp.Traffics = vals
	}
	if vals := SplitCSV(f.Topology); len(vals) > 0 {
		camp.Topologies = vals
	}
	if vals := SplitCSV(f.EnergyProfile); len(vals) > 0 {
		camp.EnergyProfiles = vals
	}
	if f.Battery != "" {
		vals, err := ParseFloats(f.Battery)
		if err != nil {
			return runner.Campaign{}, fmt.Errorf("bad -battery %q", f.Battery)
		}
		camp.BatteriesJ = vals
	}
	if names := SplitCSV(f.Variants); len(names) > 0 {
		kept, err := FilterVariants(camp.Variants, names)
		if err != nil {
			return runner.Campaign{}, err
		}
		camp.Variants = kept
	}
	return camp, nil
}

// base resolves -spec/-preset into the unmodified campaign.
func (f *CampaignFlags) base() (runner.Campaign, error) {
	switch {
	case f.Spec != "" && f.Preset != "":
		return runner.Campaign{}, fmt.Errorf("-spec and -preset are mutually exclusive")
	case f.Spec != "":
		return runner.LoadCampaign(f.Spec)
	case f.Preset != "":
		loads, err := ParseFloats(f.Loads)
		if err != nil {
			return runner.Campaign{}, fmt.Errorf("bad -loads %q", f.Loads)
		}
		return runner.Preset(f.Preset, f.DurationS, f.Seeds, loads)
	default:
		return runner.Campaign{}, fmt.Errorf("need -spec FILE or -preset NAME (presets: %s)",
			strings.Join(runner.PresetNames(), ", "))
	}
}

// FilterVariants keeps the named variants, preserving campaign order
// so the surviving run keys (and their derived seeds) match the full
// grid's.
func FilterVariants(all []runner.Variant, names []string) ([]runner.Variant, error) {
	if len(all) == 0 {
		return nil, fmt.Errorf("-variants given but the campaign has no variant axis")
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var kept []runner.Variant
	for _, v := range all {
		if want[v.Name] {
			kept = append(kept, v)
			delete(want, v.Name)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for _, n := range names {
			if want[n] {
				missing = append(missing, n)
			}
		}
		have := make([]string, 0, len(all))
		for _, v := range all {
			have = append(have, v.Name)
		}
		return nil, fmt.Errorf("unknown variants %s (have %s)",
			strings.Join(missing, ", "), strings.Join(have, ", "))
	}
	return kept, nil
}

// SplitCSV converts "a,b,c" to its trimmed non-empty tokens (nil when
// empty).
func SplitCSV(csv string) []string {
	var out []string
	for _, tok := range strings.Split(csv, ",") {
		if t := strings.TrimSpace(tok); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// ParseFloats converts "200,300,400" to a float axis (nil when empty,
// letting preset defaults apply).
func ParseFloats(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var vals []float64
	for _, tok := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", tok)
		}
		vals = append(vals, v)
	}
	return vals, nil
}
