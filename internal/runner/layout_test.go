package runner

import (
	"bytes"
	"testing"
)

// TestResultLayout pins the JSONL record's key names and order with
// every field set, the omitempty ones included, so a renamed or
// reordered key fails here even when the digest tests' records leave
// it out. The record is filled field by field: the test states the
// wire format, not how Result is composed.
func TestResultLayout(t *testing.T) {
	var r Result
	r.Key = "v=a/s=pcmac/rep=1"
	r.Variant = "a"
	r.Scheme = "pcmac"
	r.Traffic = "poisson"
	r.Topology = "grid"
	r.LoadKbps = 250
	r.Nodes = 50
	r.SpeedMps = 3
	r.ShadowingDB = 4
	r.SafetyFactor = 0.7
	r.EnergyProfile = "sensor"
	r.BatteryJ = 80
	r.Rep = 1
	r.Seed = 42
	r.DurationS = 100

	r.ThroughputKbps = 1.5
	r.AvgDelayMs = 2.5
	r.DelayP50Ms = 3.5
	r.DelayP95Ms = 4.5
	r.DelayP99Ms = 5.5
	r.JitterMs = 6.5
	r.PDR = 0.75
	r.JainFairness = 0.875
	r.RadiatedEnergyJ = 7.5
	r.CtrlRadiatedEnergyJ = 8.5
	r.ConsumedEnergyJ = 9.5
	r.EnergyTxJ = 10.5
	r.EnergyRxJ = 11.5
	r.EnergyIdleJ = 12.5
	r.EnergyOverhearJ = 13.5
	r.ConsumedPerKBJ = 14.5
	r.EnergyFairness = 0.625
	r.DeadNodes = 2
	r.TimeToFirstDeathS = 15.5
	r.AliveTimeline = [][2]float64{{0, 50}, {15.5, 49}, {16.5, 48}}
	r.Events = 1234

	r.Status = StatusFailed
	r.Error = "boom"
	r.Attempts = 3
	r.WallMS = 17.5
	r.PeakQueue = 99

	const want = `{"key":"v=a/s=pcmac/rep=1","variant":"a","scheme":"pcmac","traffic":"poisson","topology":"grid",` +
		`"load_kbps":250,"nodes":50,"speed_mps":3,"shadowing_db":4,"safety_factor":0.7,"energy_profile":"sensor",` +
		`"battery_j":80,"rep":1,"seed":42,"duration_s":100,` +
		`"throughput_kbps":1.5,"avg_delay_ms":2.5,"delay_p50_ms":3.5,"delay_p95_ms":4.5,"delay_p99_ms":5.5,` +
		`"jitter_ms":6.5,"pdr":0.75,"jain_fairness":0.875,"energy_j":7.5,"ctrl_energy_j":8.5,` +
		`"consumed_energy_j":9.5,"energy_tx_j":10.5,"energy_rx_j":11.5,"energy_idle_j":12.5,` +
		`"energy_overhear_j":13.5,"consumed_per_kb_j":14.5,"energy_fairness":0.625,"dead_nodes":2,` +
		`"time_to_first_death_s":15.5,"alive_timeline":[[0,50],[15.5,49],[16.5,48]],"events":1234,` +
		`"status":"failed","error":"boom","attempts":3,"wall_ms":17.5,"peak_queue":99}` + "\n"
	var b bytes.Buffer
	if err := WriteResult(&b, r); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("record layout changed:\n got %s\nwant %s", got, want)
	}
	back, err := LoadResults(&b)
	if err != nil || len(back) != 1 {
		t.Fatalf("LoadResults = %d records, %v", len(back), err)
	}
	var again bytes.Buffer
	if err := WriteResult(&again, back[0]); err != nil {
		t.Fatal(err)
	}
	if again.String() != want {
		t.Fatalf("record does not round-trip:\n got %s\nwant %s", again.String(), want)
	}
}
