package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestVariantValidatedWithBase: a patch is validated only as part of
// the merged scenario, never on its own against the paper's defaults.
// Each campaign below merges to a valid scenario, but its patch alone
// would fail validation.
func TestVariantValidatedWithBase(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Campaign
	}{
		{"pcmac-300-nodes-without-ctrl", Campaign{
			Base:     scenario.Options{Scheme: mac.PCMAC, DisableCtrlChannel: true, Nodes: 300},
			Variants: []Variant{{Name: "n=400", Patch: scenario.FileConfig{Nodes: 400}}},
		}},
		{"flows-against-base-nodes", Campaign{
			Base:     scenario.Options{Nodes: 2000},
			Variants: []Variant{{Name: "f=3000", Patch: scenario.FileConfig{Flows: 3000}}},
		}},
		{"flows-against-nodes-axis", Campaign{
			Axes:     Axes{Nodes: []int{2000}},
			Variants: []Variant{{Name: "f=3000", Patch: scenario.FileConfig{Flows: 3000}}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.c.Runs(); err != nil {
				t.Fatalf("valid merged scenario rejected: %v", err)
			}
		})
	}
}

// TestVariantRejectsDeadPatchFields: a patch's scheme, load and seed
// are overwritten in every run by the scheme axis, the load axis and
// the seed derivation, so Runs rejects them, naming the field and what
// to use instead.
func TestVariantRejectsDeadPatchFields(t *testing.T) {
	for _, tc := range []struct {
		field, value, instead string
	}{
		{"scheme", `"pcmac"`, "schemes"},
		{"offered_load_kbps", `123`, "loads_kbps"},
		{"seed", `5`, "seed_list or base_seed"},
	} {
		t.Run(tc.field, func(t *testing.T) {
			spec := fmt.Sprintf(`{"name": "x", "variants": [{"name": "v", "patch": {%q: %s}}]}`, tc.field, tc.value)
			cf, err := ParseCampaignFile([]byte(spec))
			if err != nil {
				t.Fatal(err)
			}
			c, err := cf.Campaign()
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Runs()
			if err == nil {
				t.Fatalf("patch {%q: %s} accepted", tc.field, tc.value)
			}
			for _, want := range []string{`"` + tc.field + `"`, tc.instead} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}

// patchValues holds one valid non-zero value per FileConfig field, by
// JSON name, each different from overlayBase's value for it.
var patchValues = map[string]string{
	"scheme":               `"pcmac"`,
	"nodes":                `7`,
	"field_w_m":            `500`,
	"field_h_m":            `600`,
	"speed_min_mps":        `1`,
	"speed_max_mps":        `5`,
	"pause_s":              `2`,
	"flows":                `3`,
	"traffic":              `"poisson"`,
	"burst_factor":         `3`,
	"pareto_shape":         `2`,
	"response_bytes":       `100`,
	"topology":             `"grid"`,
	"offered_load_kbps":    `123`,
	"packet_bytes":         `256`,
	"duration_s":           `30`,
	"warmup_s":             `2`,
	"safety_factor":        `0.5`,
	"history_expiry_s":     `1`,
	"ctrl_bandwidth_bps":   `100000`,
	"disable_ctrl_channel": `true`,
	"disable_three_way":    `true`,
	"shadowing_sigma_db":   `2`,
	"energy_profile":       `"sensor"`,
	"battery_j":            `10`,
	"flow_rate_spread_pct": `5`,
	"rts_threshold_bytes":  `100`,
	"static":               `[[0,0],[100,0],[200,0],[300,0],[400,0]]`,
	"flow_pairs":           `[[0,1]]`,
}

func overlayBase() scenario.Options {
	return scenario.Options{Scheme: mac.Basic, Duration: 20 * sim.Second, Warmup: sim.Duration(sim.Second)}
}

// TestOverlayCoversEveryField sets each FileConfig field alone in a
// patch and requires the overlaid Options, and the expanded run's
// Options, to change. The field list comes from reflection, so a new
// FileConfig field without overlay support (or without an entry in
// patchValues) fails here.
func TestOverlayCoversEveryField(t *testing.T) {
	runOpts := func(p scenario.FileConfig) scenario.Options {
		t.Helper()
		c := Campaign{Base: overlayBase(), Variants: []Variant{{Name: "p", Patch: p}}}
		runs, err := c.Runs()
		if err != nil {
			t.Fatal(err)
		}
		return runs[0].Opts
	}
	unpatched := runOpts(scenario.FileConfig{})
	ft := reflect.TypeOf(scenario.FileConfig{})
	for i := 0; i < ft.NumField(); i++ {
		name, _, _ := strings.Cut(ft.Field(i).Tag.Get("json"), ",")
		if name == "seed" {
			continue // every run's seed is derived, whatever the patch says
		}
		t.Run(name, func(t *testing.T) {
			val, ok := patchValues[name]
			if !ok {
				t.Fatalf("no patch value for FileConfig field %s", name)
			}
			var p scenario.FileConfig
			if err := scenario.DecodeStrict([]byte(fmt.Sprintf(`{%q: %s}`, name, val)), &p); err != nil {
				t.Fatal(err)
			}
			if reflect.ValueOf(p).Field(i).IsZero() {
				t.Fatalf("patch value %s left the field zero", val)
			}
			got, err := scenario.Overlay(overlayBase(), p)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(got, overlayBase()) {
				t.Errorf("overlay of {%q: %s} did not change the options", name, val)
			}
			if name == "scheme" || name == "offered_load_kbps" {
				// The scheme and load axes are always applied, with the
				// base's value when unswept, so they override the patch.
				return
			}
			if reflect.DeepEqual(runOpts(p), unpatched) {
				t.Errorf("patch {%q: %s} did not change the run's options", name, val)
			}
		})
	}
}

// TestOverlayEmptyPatchKeepsBase: an empty patch leaves every field of
// a fully populated base intact — including the ones FileConfig cannot
// carry, which the overlay copies back from the base.
func TestOverlayEmptyPatchKeepsBase(t *testing.T) {
	base := scenario.Options{
		Scheme:            mac.PCMAC,
		Traffic:           "onoff",
		Topology:          scenario.TopologyGrid,
		Static:            []geom.Point{{X: 0}, {X: 100}, {X: 200}},
		FlowPairs:         [][2]packet.NodeID{{0, 2}},
		Seed:              99,
		FlowRateSpreadPct: 4,
		Trace:             &trace.Buffer{},
		TimelineBucket:    sim.Second,
		ShadowingSigmaDB:  3,
		EnergyProfile:     "sensor",
		BatteryJ:          25,
		CollectSimStats:   true,
		SpeedMin:          2,
		SpeedMax:          4,
		SafetyFactor:      0.6,
		RTSThresholdBytes: 300,
		Duration:          30 * sim.Second,
	}.WithDefaults()
	base.DisableCtrlChannel, base.DisableThreeWay = true, true
	base.TrafficStart = sim.Time(2 * sim.Second)
	bv := reflect.ValueOf(base)
	for i := 0; i < bv.NumField(); i++ {
		if bv.Field(i).IsZero() {
			t.Fatalf("base field %s is zero; populate it", bv.Type().Field(i).Name)
		}
	}
	c := Campaign{Base: base, Variants: []Variant{{Name: "empty"}}, Axes: Axes{SeedList: []int64{base.Seed}}}
	runs, err := c.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs[0].Opts, base) {
		t.Errorf("empty patch changed the base:\n got %+v\nwant %+v", runs[0].Opts, base)
	}
}
