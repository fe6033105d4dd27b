package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// neighbours builds the scenario a JSON config describes and returns
// its decode-range relation at time zero as "a b" pairs, one per
// listed neighbour.
func neighbours(t *testing.T, config string) map[string]bool {
	t.Helper()
	var fc scenario.FileConfig
	if err := scenario.DecodeStrict([]byte(config), &fc); err != nil {
		t.Fatal(err)
	}
	o, err := fc.Options()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := scenario.Build(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := connectivity(&buf, nw, 0); err != nil {
		t.Fatal(err)
	}
	rel := map[string]bool{}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, line := range lines[1:] { // skip the heading
		from, list, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("unparsed line %q", line)
		}
		if list == "(isolated)" {
			continue
		}
		for _, f := range strings.Fields(list) {
			to, _, _ := strings.Cut(f, "(")
			rel[from+" "+to] = true
		}
	}
	if len(rel) == 0 {
		t.Fatalf("no neighbours listed:\n%s", buf.String())
	}
	return rel
}

// TestConnectivityIgnoresShadowing: under shadowing the listed
// relation is the deterministic mean's, so it is symmetric and equals
// the unshadowed scenario's, whose positions are the same.
func TestConnectivityIgnoresShadowing(t *testing.T) {
	plain := neighbours(t, `{"scheme":"pcmac","duration_s":20}`)
	faded := neighbours(t, `{"scheme":"pcmac","duration_s":20,"shadowing_sigma_db":6}`)
	for pair := range faded {
		a, b, _ := strings.Cut(pair, " ")
		if !faded[b+" "+a] {
			t.Errorf("%s lists %s, but %s does not list %s", a, b, b, a)
		}
		if !plain[pair] {
			t.Errorf("shadowed run lists %s, the unshadowed one does not", pair)
		}
	}
	for pair := range plain {
		if !faded[pair] {
			t.Errorf("unshadowed run lists %s, the shadowed one does not", pair)
		}
	}
}
