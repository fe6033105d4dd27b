package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/sim"
)

func TestConfigRoundTrip(t *testing.T) {
	orig := Options{
		Scheme:            mac.PCMAC,
		Nodes:             20,
		FieldW:            800,
		FieldH:            600,
		SpeedMin:          2,
		SpeedMax:          4,
		Pause:             3 * sim.Second,
		Flows:             5,
		OfferedLoadKbps:   350,
		PacketBytes:       512,
		Duration:          60 * sim.Second,
		Warmup:            5 * sim.Second,
		Seed:              42,
		SafetyFactor:      0.7,
		HistoryExpiry:     3 * sim.Second,
		CtrlBandwidthBps:  500e3,
		ShadowingSigmaDB:  4,
		FlowRateSpreadPct: 10,
		Static:            []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}},
		FlowPairs:         [][2]packet.NodeID{{0, 1}},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "scenario.json")
	b, err := json.MarshalIndent(ToFileConfig(orig), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scheme != orig.Scheme || got.Nodes != orig.Nodes || got.Seed != orig.Seed {
		t.Fatalf("identity fields changed: %+v", got)
	}
	if got.Pause != orig.Pause || got.Duration != orig.Duration || got.HistoryExpiry != orig.HistoryExpiry {
		t.Fatalf("durations changed: pause=%v dur=%v exp=%v", got.Pause, got.Duration, got.HistoryExpiry)
	}
	if len(got.Static) != 2 || got.Static[1] != (geom.Point{X: 3, Y: 4}) {
		t.Fatalf("static = %v", got.Static)
	}
	if len(got.FlowPairs) != 1 || got.FlowPairs[0] != ([2]packet.NodeID{0, 1}) {
		t.Fatalf("flows = %v", got.FlowPairs)
	}
	if got.ShadowingSigmaDB != 4 {
		t.Fatalf("shadowing = %v", got.ShadowingSigmaDB)
	}
}

func TestConfigSchemeNamesRoundTrip(t *testing.T) {
	for _, s := range mac.Schemes() {
		fc := ToFileConfig(Options{Scheme: s})
		got, err := fc.Options()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.Scheme != s {
			t.Fatalf("scheme %v round-tripped to %v", s, got.Scheme)
		}
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := LoadConfig("/nonexistent/path.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadConfig(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
	unknown := filepath.Join(dir, "scheme.json")
	os.WriteFile(unknown, []byte(`{"scheme":"wifi7"}`), 0o644)
	if _, err := LoadConfig(unknown); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestLoadConfigStrict: a -config file is decoded strictly, so a typo'd
// key or trailing data fails instead of running on defaults, and a
// removed field says so.
func TestLoadConfigStrict(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"typo'd field", `{"scheme": "basic", "offered_load_kpbs": 900}`, `unknown field "offered_load_kpbs"`},
		{"trailing data", `{"scheme": "basic"} {"scheme": "pcmac"}`, "trailing data"},
		{"trailing brace", `{"scheme": "basic"}}`, "trailing data"},
		{"removed regions", `{"scheme": "basic", "regions": 4}`, `field "regions" was removed`},
		{"removed event_queue", `{"scheme": "basic", "event_queue": "heap"}`, `field "event_queue" was removed (runs always use the calendar event queue); delete it`},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "c.json")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadConfig(path)
			if err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
	path := filepath.Join(dir, "ok.json")
	if err := os.WriteFile(path, []byte("{\"scheme\": \"basic\", \"offered_load_kbps\": 900}\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := LoadConfig(path)
	if err != nil || o.OfferedLoadKbps != 900 {
		t.Fatalf("LoadConfig offered load = %v, %v; want 900", o.OfferedLoadKbps, err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []FileConfig{
		{Scheme: "pcmac", Nodes: -1},
		{Scheme: "pcmac", OfferedLoadKbps: -5},
		{Scheme: "pcmac", DurationS: 10, WarmupS: 20},
		{Scheme: "pcmac", ShadowingSigmaDB: -1},
		{Scheme: "pcmac", FlowPairs: [][2]uint16{{3, 3}}},
		{Scheme: "pcmac", Traffic: "fractal"},
		{Scheme: "pcmac", Topology: "torus"},
		{Scheme: "pcmac", BurstFactor: 1},
		{Scheme: "pcmac", ParetoShape: 0.5},
		{Scheme: "pcmac", ResponseBytes: -1},
		{Scheme: "pcmac", Nodes: 3, Flows: 12},
		{Scheme: "pcmac", Flows: 5000}, // default 50 nodes: 2450 pairs
		{Scheme: "pcmac", FieldW: -500},
		{Scheme: "pcmac", FieldH: -1e-9},
		// The longest link must propagate in under 2^32 ns: a
		// 1.29-million-km field diagonal does not, nor does a Static
		// point that far out.
		{Scheme: "pcmac", FieldW: 1e9, FieldH: 1e9},
		{Scheme: "pcmac", FieldW: 1.2876e9},
		{Scheme: "pcmac", Static: [][2]float64{{0, 0}, {-1.2876e9, 0}}},
		// Speeds: negative, below the defaulted minimum, or out of order.
		{Scheme: "pcmac", SpeedMin: -3},
		{Scheme: "pcmac", SpeedMax: -1},
		{Scheme: "pcmac", SpeedMax: 2}, // SpeedMin defaults to 3
		{Scheme: "pcmac", SpeedMin: 5, SpeedMax: 4},
		{Scheme: "pcmac", PauseS: -2},
		{Scheme: "pcmac", SafetyFactor: -1},
		{Scheme: "pcmac", PacketBytes: -1},
		{Scheme: "pcmac", CtrlBandwidthBps: -1},
		{Scheme: "pcmac", HistoryExpiryS: -1},
		{Scheme: "pcmac", FlowRateSpreadPct: -1},
		{Scheme: "pcmac", FlowRateSpreadPct: 200},
		{Scheme: "pcmac", FlowRateSpreadPct: 300},
		{Scheme: "pcmac", DurationS: 8, RTSThresholdBytes: -5},
		// Empty measurement windows against a defaulted side: the 5 s
		// warmup outlasts a 4 s run, a 500 s warmup the 400 s default.
		{Scheme: "basic", DurationS: 4},
		{Scheme: "basic", WarmupS: 500},
	}
	for i, fc := range cases {
		if _, err := fc.Options(); err == nil {
			t.Errorf("case %d validated: %+v", i, fc)
		}
	}

	// What pcmacsim -field -500 builds, and non-finite fields, which
	// only Options (not JSON) can carry.
	pcmacsim := func(w, h float64) Options {
		return Options{Scheme: mac.PCMAC, Nodes: 50, Flows: 10, OfferedLoadKbps: 400,
			FieldW: w, FieldH: h, SpeedMin: 3, SpeedMax: 3, Pause: 3 * sim.Second,
			Duration: 60 * sim.Second, Warmup: 5 * sim.Second, Seed: 1, SafetyFactor: 0.7}
	}
	for _, o := range []Options{
		pcmacsim(-500, -500),
		pcmacsim(math.NaN(), 1000),
		pcmacsim(1000, math.Inf(1)),
		{Scheme: mac.PCMAC, Static: []geom.Point{{}, {X: math.NaN()}}},
	} {
		err := Validate(o)
		if err == nil || !strings.Contains(err.Error(), "field") && !strings.Contains(err.Error(), "diagonal") {
			t.Errorf("field %g x %g, static %v: err = %v, want a field or diagonal error", o.FieldW, o.FieldH, o.Static, err)
		}
	}
	// Non-finite values only Options (not JSON) can carry.
	for i, o := range []Options{
		{SpeedMin: math.NaN()},
		{SpeedMax: math.NaN()},
		{SpeedMin: math.Inf(1)},
		{SafetyFactor: math.Inf(1)},
		{SafetyFactor: math.NaN()},
		{CtrlBandwidthBps: math.NaN()},
		{FlowRateSpreadPct: math.NaN()},
		{BurstFactor: math.NaN()},
		{ParetoShape: math.NaN()},
		{OfferedLoadKbps: math.NaN()},
		{ShadowingSigmaDB: math.NaN()},
		{BatteryJ: math.NaN()},
	} {
		if err := Validate(o); err == nil {
			t.Errorf("non-finite case %d validated: %+v", i, o)
		}
	}
	// The window error speaks in seconds.
	if err := Validate(Options{Duration: 4 * sim.Second}); err == nil || !strings.Contains(err.Error(), "warmup 5s >= duration 4s") {
		t.Errorf("4 s run under the default warmup: err = %v, want warmup 5s >= duration 4s", err)
	}
	// Just under the limit: the diagonal of a 1.2875e9 m x 1000 m
	// field propagates in 4294637726 ns < 2^32.
	if err := Validate(pcmacsim(1.2875e9, 0)); err != nil {
		t.Errorf("a field whose diagonal takes under 2^32 ns was rejected: %v", err)
	}
	if err := Validate(pcmacsim(1000, 1000)); err != nil {
		t.Errorf("pcmacsim's default options were rejected: %v", err)
	}
}

func TestLoadedConfigRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	os.WriteFile(path, []byte(`{
		"scheme": "pcmac",
		"static": [[0,0],[150,0]],
		"flow_pairs": [[0,1]],
		"offered_load_kbps": 60,
		"duration_s": 10,
		"warmup_s": 1,
		"seed": 3
	}`), 0o644)
	o, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.PDR < 0.9 {
		t.Fatalf("config-driven run PDR = %.3f", res.PDR)
	}
}
