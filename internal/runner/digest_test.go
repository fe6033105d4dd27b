package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/mac"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// trafficModelsDigest is the SHA-256 of the JSONL that
// TestTrafficModelsPinnedDigest's campaign writes. Every traffic model
// shapes the whole run (packet times, RNG draws, event order), so a
// change to any source's pacing, draw order or delivery routing moves
// this digest. Update it only for a change that is meant to alter
// output bytes, and say so in CHANGES.md.
const trafficModelsDigest = "65a5245f96ef3fb769a42adfed118acf06eeec6c7df851c472db9792216b757c"

// TestTrafficModelsPinnedDigest runs every traffic model on 802.11
// basic and PCMAC over a small mobile network and pins the campaign's
// output bytes. TestExecuteRepeatDeterministic compares a run only
// with itself; this test compares it with a recorded constant.
func TestTrafficModelsPinnedDigest(t *testing.T) {
	c := Campaign{
		Name: "traffic-digest",
		Base: scenario.Options{
			Nodes:    20,
			FieldW:   600,
			FieldH:   600,
			Duration: 3 * sim.Second,
			Warmup:   sim.Duration(sim.Second / 2),
		},
		Schemes: []mac.Scheme{mac.Basic, mac.PCMAC},
		Axes: Axes{
			Traffics:  []string{"cbr", "poisson", "onoff", "pareto", "reqresp"},
			LoadsKbps: []float64{300},
			Reps:      1,
		},
	}
	var out bytes.Buffer
	if _, err := Execute(context.Background(), c, ExecOptions{Workers: 2, Out: &out}); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(out.Bytes(), []byte("\n")); n != 10 {
		t.Fatalf("campaign wrote %d records, want 10", n)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != trafficModelsDigest {
		t.Fatalf("JSONL digest %s, want %s\n%s", got, trafficModelsDigest, out.String())
	}
}
