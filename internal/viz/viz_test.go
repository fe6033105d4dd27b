package viz

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
)

func TestMapRender(t *testing.T) {
	m := NewMap(geom.NewField(1000, 1000), 20, 10)
	m.Add(0, geom.Point{X: 0, Y: 0})
	m.Add(1, geom.Point{X: 999, Y: 999})
	m.Add(12, geom.Point{X: 500, Y: 500})
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 12 { // border + 10 rows + border
		t.Fatalf("rendered %d lines, want 12", len(lines))
	}
	if !strings.Contains(lines[1], "0") {
		t.Errorf("node 0 not in top row: %q", lines[1])
	}
	if !strings.Contains(lines[10], "1") {
		t.Errorf("node 1 not in bottom row: %q", lines[10])
	}
	// Node 12 renders as its last digit.
	if !strings.Contains(out, "2") {
		t.Error("node 12's glyph missing")
	}
}

func TestMapMarks(t *testing.T) {
	m := NewMap(geom.NewField(100, 100), 10, 5)
	m.Add(0, geom.Point{X: 10, Y: 50})
	m.Add(1, geom.Point{X: 90, Y: 50})
	m.Add(2, geom.Point{X: 50, Y: 50})
	m.MarkFlows([][2]packet.NodeID{{0, 1}, {1, 2}})
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "S") {
		t.Error("source mark missing")
	}
	if !strings.Contains(out, "D") {
		t.Error("destination mark missing")
	}
	if !strings.Contains(out, "X") {
		t.Error("dual-role mark missing (node 1 is both D and S)")
	}
}

func TestMapClampsOutOfField(t *testing.T) {
	m := NewMap(geom.NewField(100, 100), 10, 5)
	m.Add(7, geom.Point{X: -50, Y: 500})
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "7") {
		t.Error("out-of-field node not clamped onto the map")
	}
}

func TestMapTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny grid did not panic")
		}
	}()
	NewMap(geom.NewField(10, 10), 1, 1)
}

func TestConnectivity(t *testing.T) {
	model := phys.NewTwoRayGround()
	ids := []packet.NodeID{0, 1, 2}
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 600}}
	var sb strings.Builder
	err := Connectivity(&sb, ids, pos, power.MaxW, phys.RxThreshW, model.ReceivedPower)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 0-1 at 200 m: connected (250 m range); 0-2 at 600 m: not.
	if !strings.Contains(out, "n0: n1(200m)") {
		t.Errorf("missing 0-1 link:\n%s", out)
	}
	if strings.Contains(out, "n0: n1(200m) n2") {
		t.Errorf("phantom 0-2 link:\n%s", out)
	}
	if !strings.Contains(out, "n2: (isolated)") {
		t.Errorf("node 2 should be isolated:\n%s", out)
	}
}

func TestConnectivityLengthMismatch(t *testing.T) {
	var sb strings.Builder
	err := Connectivity(&sb, []packet.NodeID{0}, nil, 0.1, 1e-10, func(p, d float64) float64 { return 0 })
	if err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}
