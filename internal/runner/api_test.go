package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestExecuteCancel pins the cancellation contract: cancelling mid-
// campaign stops dispatching, lets in-flight runs finish, returns
// context.Canceled, and leaves the output a campaign-order prefix from
// which a resume produces a byte-identical concatenation.
func TestExecuteCancel(t *testing.T) {
	var full bytes.Buffer
	if _, err := Execute(context.Background(), tinyCampaign(), ExecOptions{Out: &full}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var partial bytes.Buffer
	sum, err := Execute(ctx, tinyCampaign(), ExecOptions{
		Workers: 1,
		Out:     &partial,
		Progress: ProgressFunc(func(ev RunEvent) {
			if ev.Done == 2 {
				cancel()
			}
		}),
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With one worker, at most the in-flight run and one already-
	// dispatched job finish after the cancel at done=2.
	if sum.Executed >= sum.Total {
		t.Fatalf("cancel executed all %d runs", sum.Total)
	}
	if !bytes.HasPrefix(full.Bytes(), partial.Bytes()) {
		t.Fatalf("cancelled output is not a prefix of the full stream:\n--- partial ---\n%s--- full ---\n%s",
			partial.String(), full.String())
	}

	// Resume from the interrupted checkpoint: the appended suffix must
	// complete the byte-identical stream.
	results, err := LoadResults(bytes.NewReader(partial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rest bytes.Buffer
	sum2, err := Execute(context.Background(), tinyCampaign(), ExecOptions{
		Out:       &rest,
		Completed: ResumeSet(results),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Skipped != len(results) {
		t.Fatalf("resume skipped %d, want %d", sum2.Skipped, len(results))
	}
	joined := append(append([]byte(nil), partial.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(joined, full.Bytes()) {
		t.Fatalf("partial+resumed differs from uninterrupted run:\n--- joined ---\n%s--- full ---\n%s",
			joined, full.String())
	}
}

// TestExecuteCancelBeforeStart: a context cancelled up front executes
// nothing and still reports context.Canceled.
func TestExecuteCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	sum, err := Execute(ctx, tinyCampaign(), ExecOptions{Workers: 4, Out: &out})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum.Executed != 0 || out.Len() != 0 {
		t.Fatalf("pre-cancelled Execute ran %d runs, emitted %d bytes", sum.Executed, out.Len())
	}
}

func TestMultiProgress(t *testing.T) {
	var a, b []int
	p := MultiProgress(
		ProgressFunc(func(ev RunEvent) { a = append(a, ev.Done) }),
		nil,
		ProgressFunc(func(ev RunEvent) { b = append(b, ev.Done) }),
	)
	p.RunDone(RunEvent{Done: 1, Total: 2})
	p.RunDone(RunEvent{Done: 2, Total: 2})
	if len(a) != 2 || len(b) != 2 || a[1] != 2 || b[1] != 2 {
		t.Fatalf("fan-out lost events: a=%v b=%v", a, b)
	}
}

// TestParseCampaignFileStrict covers the versioned-spec contract:
// unknown fields, trailing data and future versions are actionable
// errors; a version-less legacy spec and the current version both parse.
func TestParseCampaignFileStrict(t *testing.T) {
	good := `{"version": 1, "name": "ok", "base": {"duration_s": 5, "warmup_s": 1}, "schemes": ["basic"], "loads_kbps": [40]}`
	cf, err := ParseCampaignFile([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if cf.Version != SpecVersion || cf.Name != "ok" {
		t.Fatalf("parsed %+v", cf)
	}

	legacy := `{"name": "old", "base": {"duration_s": 5}, "schemes": ["basic"]}`
	if cf, err = ParseCampaignFile([]byte(legacy)); err != nil {
		t.Fatalf("version-less legacy spec rejected: %v", err)
	} else if cf.Version != 0 {
		t.Fatalf("legacy version = %d", cf.Version)
	}

	cases := []struct {
		name, in, wantSub string
	}{
		{"unknown field", `{"name": "x", "loads_kpbs": [40]}`, "loads_kpbs"},
		{"unknown base field", `{"name": "x", "base": {"offered_load_kpbs": 900}}`, "offered_load_kpbs"},
		{"future version", `{"version": 99, "name": "x"}`, "version 99"},
		{"trailing data", `{"name": "x"} {"name": "y"}`, "trailing"},
		{"trailing brace", `{"name": "x"}}`, "trailing"},
		{"regions in base", `{"name": "x", "base": {"regions": 4}}`, `"regions" was removed`},
		{"regions in patch", `{"name": "x", "variants": [{"name": "r4", "patch": {"regions": 4}}]}`, `"regions" was removed`},
		{"regions axis", `{"name": "x", "regions": [1, 4]}`, `"regions" was removed`},
		{"event_queue in base", `{"name": "x", "base": {"event_queue": "heap"}}`, `field "event_queue" was removed`},
		{"event_queue in patch", `{"name": "x", "variants": [{"name": "h", "patch": {"event_queue": "heap"}}]}`, `field "event_queue" was removed`},
		{"event_queues axis", `{"name": "x", "event_queues": ["calendar", "heap"]}`, `field "event_queues" was removed`},
		{"not json", `schemes: [basic]`, "campaign spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCampaignFile([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the problem (%q)", err, tc.wantSub)
			}
		})
	}
}

// TestAPIDocSpecParses decodes the campaign-spec example in docs/api.md
// through the strict parser, so the documented schema cannot drift from
// the decoder.
func TestAPIDocSpecParses(t *testing.T) {
	doc, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "## Campaign spec schema")
	if !ok {
		t.Fatal("docs/api.md has no campaign spec schema section")
	}
	_, rest, ok = strings.Cut(rest, "```json\n")
	if !ok {
		t.Fatal("campaign spec schema section has no json example")
	}
	example, _, ok := strings.Cut(rest, "```")
	if !ok {
		t.Fatal("unterminated json example")
	}
	cf, err := ParseCampaignFile([]byte(example))
	if err != nil {
		t.Fatalf("documented spec rejected: %v", err)
	}
	if _, err := cf.Campaign(); err != nil {
		t.Fatalf("documented spec does not convert: %v", err)
	}
}

// TestFileCarriesVersion: the spec emitted by -emit-spec (Campaign.File)
// is pinned to the current schema version, and round-trips through the
// strict parser.
func TestFileCarriesVersion(t *testing.T) {
	cf := tinyCampaign().File()
	if cf.Version != SpecVersion {
		t.Fatalf("File() version = %d, want %d", cf.Version, SpecVersion)
	}
	b, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCampaignFile(b)
	if err != nil {
		t.Fatalf("emitted spec does not survive the strict parser: %v", err)
	}
	if back.Version != SpecVersion {
		t.Fatalf("round-trip version = %d", back.Version)
	}
}
