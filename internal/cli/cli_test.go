package cli

import (
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func parse(t *testing.T, args ...string) *CampaignFlags {
	t.Helper()
	var cf CampaignFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &cf
}

func TestBuildPresetWithOverrides(t *testing.T) {
	cf := parse(t, "-preset", "fig8", "-duration", "5", "-seeds", "1",
		"-loads", "40, 80", "-traffic", "poisson,onoff", "-energy-profile", "sensor")
	if !cf.Given() {
		t.Fatal("Given() = false with -preset set")
	}
	camp, err := cf.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.LoadsKbps) != 2 || camp.LoadsKbps[1] != 80 {
		t.Fatalf("loads = %v", camp.LoadsKbps)
	}
	if len(camp.Traffics) != 2 || camp.Traffics[0] != "poisson" {
		t.Fatalf("traffics = %v", camp.Traffics)
	}
	if len(camp.EnergyProfiles) != 1 || camp.EnergyProfiles[0] != "sensor" {
		t.Fatalf("energy profiles = %v", camp.EnergyProfiles)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := parse(t).Build(); err == nil || !strings.Contains(err.Error(), "-spec FILE or -preset NAME") {
		t.Fatalf("no selection: %v", err)
	}
	if _, err := parse(t, "-spec", "a.json", "-preset", "fig8").Build(); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("both selections: %v", err)
	}
	if _, err := parse(t, "-preset", "fig8", "-loads", "40,nope").Build(); err == nil {
		t.Fatal("bad -loads accepted")
	}
	if _, err := parse(t, "-preset", "fig8", "-battery", "x").Build(); err == nil {
		t.Fatal("bad -battery accepted")
	}
	if _, err := parse(t, "-preset", "fig8", "-variants", "n=9999").Build(); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

func TestBindExec(t *testing.T) {
	var opts runner.ExecOptions
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindExec(fs, &opts)
	if err := fs.Parse([]string{"-retries", "2", "-run-timeout", "3s", "-no-retry-failed"}); err != nil {
		t.Fatal(err)
	}
	if opts.Retries != 2 || opts.RunTimeout != 3*time.Second || !opts.NoRetryFailed {
		t.Fatalf("bound options = %+v", opts)
	}
}

func TestHelpers(t *testing.T) {
	if got := SplitCSV(" a, ,b ,"); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SplitCSV = %v", got)
	}
	if got := SplitCSV(""); got != nil {
		t.Fatalf("SplitCSV(\"\") = %v", got)
	}
	vals, err := ParseFloats("1, 2.5")
	if err != nil || len(vals) != 2 || vals[1] != 2.5 {
		t.Fatalf("ParseFloats = %v, %v", vals, err)
	}
	if vals, err := ParseFloats("  "); err != nil || vals != nil {
		t.Fatalf("blank ParseFloats = %v, %v", vals, err)
	}
}
