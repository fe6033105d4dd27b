package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeStrict feeds arbitrary bytes to the strict decoder,
// decoding into a FileConfig as LoadConfig does, and requires that:
//
//   - no input panics;
//   - a removed field, keyed first in an object whose value is the
//     input (when the input is valid JSON), yields its "was removed"
//     error, and a "was removed" error only ever names a removed field;
//   - a FileConfig that decodes re-encodes and decodes to the same
//     value, and converts to Options (validated or rejected) without
//     panicking.
//
// Plain go test replays the seeds below.
//
//	go test -run '^$' -fuzz FuzzDecodeStrict -fuzztime 15s ./internal/scenario
func FuzzDecodeStrict(f *testing.F) {
	f.Add([]byte(`{"scheme": "pcmac", "nodes": 50, "offered_load_kbps": 400, "duration_s": 200, "flows": 10, "seed": 1,
		"static": [[0, 0], [100.5, -3e2]], "flow_pairs": [[0, 1]], "battery_j": 40, "energy_profile": "sensor"}`))
	f.Add([]byte(`{"version": 1, "name": "fig8", "base": {"scheme": "basic802.11", "duration_s": 100, "warmup_s": 5},
		"schemes": ["basic802.11", "pcmac"], "loads_kbps": [200, 250], "reps": 3}`))
	for _, rf := range removedFields {
		f.Add([]byte(`{"scheme": "basic", "` + rf.name + `": 4}`))
	}
	f.Add([]byte(`{"scheme": "basic"} {"scheme": "pcmac"}`))
	f.Add([]byte(`{"scheme": "basic", "nodez": 5}`))
	// Field bounds: a negative field, and a layout whose diagonal takes
	// 2^32 ns or more to propagate.
	f.Add([]byte(`{"scheme": "pcmac", "field_w_m": -500, "field_h_m": -500}`))
	f.Add([]byte(`{"scheme": "basic", "field_w_m": 1e9, "static": [[0, 0], [0, -1e9]]}`))
	// Speed, pause, PCMAC knob, payload and rate-spread bounds, and an
	// empty measurement window under the defaulted warmup.
	f.Add([]byte(`{"scheme": "basic", "speed_min_mps": -3, "pause_s": -2}`))
	f.Add([]byte(`{"scheme": "basic", "speed_max_mps": 2}`))
	f.Add([]byte(`{"scheme": "pcmac", "safety_factor": -1, "history_expiry_s": -1, "ctrl_bandwidth_bps": -1}`))
	f.Add([]byte(`{"scheme": "basic", "packet_bytes": -512, "flow_rate_spread_pct": 300}`))
	f.Add([]byte(`{"scheme": "basic", "duration_s": 4}`))
	// A negative RTS threshold.
	f.Add([]byte(`{"scheme": "pcmac", "duration_s": 8, "rts_threshold_bytes": -5}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fc FileConfig
		err := DecodeStrict(data, &fc)
		if err != nil && strings.HasPrefix(err.Error(), "field ") && !namesRemovedField(err.Error()) {
			t.Fatalf("removed-field error names no removed field: %v", err)
		}

		if json.Valid(data) {
			for _, rf := range removedFields {
				in := append([]byte(`{"`+rf.name+`": `), data...)
				in = append(in, '}')
				var v FileConfig
				err := DecodeStrict(in, &v)
				if err == nil || !strings.Contains(err.Error(), `field "`+rf.name+`" was removed`) {
					t.Fatalf("%s: err = %v; want its was-removed error", in, err)
				}
			}
		}

		if err != nil {
			return
		}
		b, err := json.Marshal(fc)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", fc, err)
		}
		var again FileConfig
		if err := DecodeStrict(b, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", b, err)
		}
		// omitempty drops an empty list, which decodes back as nil.
		if len(fc.Static) == 0 {
			fc.Static = nil
		}
		if len(fc.FlowPairs) == 0 {
			fc.FlowPairs = nil
		}
		if !reflect.DeepEqual(fc, again) {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", again, fc)
		}
		fc.Options()
	})
}

func namesRemovedField(msg string) bool {
	for _, rf := range removedFields {
		if strings.Contains(msg, `field "`+rf.name+`" was removed`) {
			return true
		}
	}
	return false
}
