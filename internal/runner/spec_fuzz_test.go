package runner

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// maxFuzzRuns bounds the grids FuzzParseCampaignFile expands: a spec
// whose axis lengths and replications multiply past it is skipped, so
// a short input cannot ask for a billion-run expansion.
const maxFuzzRuns = 1000

// FuzzParseCampaignFile feeds arbitrary bytes to the campaign spec
// decoder and requires, for every spec that ParseCampaignFile accepts
// and Campaign converts, that:
//
//   - File's JSON parses again and converts again;
//   - after that first normalization a second Campaign→File round trip
//     is byte-stable;
//   - Runs returns runs or an error, never panics, and the reparsed
//     campaign expands to the same runs (grids of more than maxFuzzRuns
//     runs are skipped).
//
// Plain go test replays the seeds below.
//
//	go test -run '^$' -fuzz FuzzParseCampaignFile -fuzztime 15s ./internal/runner
func FuzzParseCampaignFile(f *testing.F) {
	for _, name := range PresetNames() {
		c, err := Preset(name, 4, 1, []float64{250})
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(c.File())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","base":{"scheme":"pcmac","duration_s":4.0000000001,"warmup_s":1},"seed_list":[3,-1]}`))
	f.Add([]byte(`{"name":"x","base":{"scheme":"basic","pause_s":1e-10,"history_expiry_s":0.3},"reps":-2,"base_seed":-7}`))
	f.Add([]byte(`{"name":"x","base":{"scheme":""},"variants":[{"name":"a","patch":{"scheme":"","nodes":5}}],"nodes":[5,5]}`))
	f.Add([]byte(`{"version":2,"name":"x","base":{"scheme":"basic"}}`))
	f.Add([]byte(`{"name":"x","base":{"scheme":"basic"},"loads_kbps":[-1]}`))
	f.Add([]byte(`{"name":"x","base":{"scheme":"basic802.11","duration_s":20,"rts_threshold_bytes":256},` +
		`"variants":[{"name":"rts256","patch":{}},{"name":"rts512","patch":{"rts_threshold_bytes":512}}],"loads_kbps":[250]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cf, err := ParseCampaignFile(data)
		if err != nil {
			return
		}
		c, err := cf.Campaign()
		if err != nil {
			return
		}
		once, c1 := reparse(t, c)
		twice, _ := reparse(t, c1)
		if !bytes.Equal(once, twice) {
			t.Fatalf("spec not stable after normalization:\n once %s\ntwice %s", once, twice)
		}
		if gridSize(c) > maxFuzzRuns {
			return
		}
		runs, err := c.Runs()
		if err == nil && len(runs) == 0 {
			t.Fatal("Runs returned no runs and no error")
		}
		// The written spec is the same grid: every run, key, seed and
		// option survives File.
		again, err1 := c1.Runs()
		if (err == nil) != (err1 == nil) || !reflect.DeepEqual(runs, again) {
			t.Fatalf("File() changed the grid: %v / %v\n%s", err, err1, once)
		}
	})
}

// reparse writes c's spec, parses and converts it again, and returns
// the spec's bytes and the converted campaign.
func reparse(t *testing.T, c Campaign) ([]byte, Campaign) {
	t.Helper()
	b, err := json.Marshal(c.File())
	if err != nil {
		t.Fatal(err)
	}
	cf, err := ParseCampaignFile(b)
	if err != nil {
		t.Fatalf("File() does not parse: %v\n%s", err, b)
	}
	back, err := cf.Campaign()
	if err != nil {
		t.Fatalf("File() does not convert: %v\n%s", err, b)
	}
	return b, back
}

// gridSize is the number of runs c expands to, saturating at
// maxFuzzRuns+1.
func gridSize(c Campaign) int {
	reps := max(c.Reps, 1)
	if len(c.SeedList) > 0 {
		reps = len(c.SeedList)
	}
	n := reps
	for _, l := range []int{
		len(c.Variants), len(c.Schemes), len(c.Traffics), len(c.Topologies), len(c.LoadsKbps), len(c.Nodes),
		len(c.SpeedsMps), len(c.ShadowingDB), len(c.SafetyFactors), len(c.BatteriesJ), len(c.EnergyProfiles),
	} {
		n *= max(l, 1)
		if n > maxFuzzRuns {
			return maxFuzzRuns + 1
		}
	}
	return n
}
