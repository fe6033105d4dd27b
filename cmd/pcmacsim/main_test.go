package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRejectExplicitZeros: an explicit 0 for a flag the scenario
// defaults on zero is an error naming that default; positive values,
// omitted flags and zeros of other flags pass.
func TestRejectExplicitZeros(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error; empty for none
	}{
		{nil, ""},
		{[]string{"-pause", "0"}, "-pause 0 would run the default 3 s"},
		{[]string{"-speed", "0"}, "-speed 0 would run the default 3 m/s"},
		{[]string{"-warmup", "0"}, "-warmup 0 would run the default 5 s"},
		{[]string{"-warmup=-0"}, "-warmup 0"},
		{[]string{"-pause", "3", "-speed", "3", "-warmup", "5"}, ""},
		{[]string{"-pause", "0.5", "-battery", "0"}, ""},
	} {
		fs := flag.NewFlagSet("pcmacsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Float64("speed", 3, "")
		fs.Float64("pause", 3, "")
		fs.Float64("warmup", 5, "")
		fs.Float64("battery", 0, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := rejectExplicitZeros(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
