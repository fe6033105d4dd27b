package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"

	"repro/internal/scenario"
)

// pb is a minimal protobuf writer for hand-built profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return b.bytes(num, p)
}

// handProfile builds a CPU profile over these stacks. Each stack is a
// list of locations, innermost first, and each location a list of
// function names, innermost (inlined) first. Sample i has i+1 samples
// of 10ms each.
func handProfile(t *testing.T, stacks [][][]string) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var msg pb
	msg = msg.bytes(1, pb(nil).varint(1, 1).varint(2, 2))
	msg = msg.bytes(1, pb(nil).varint(1, 3).varint(2, 4))
	fnID := map[string]uint64{}
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			l := pb(nil).varint(1, locID)
			for _, fn := range loc {
				if fnID[fn] == 0 {
					fnID[fn] = uint64(len(fnID) + 1)
					msg = msg.bytes(5, pb(nil).varint(1, fnID[fn]).varint(2, idx(fn)))
				}
				l = l.bytes(4, pb(nil).varint(1, fnID[fn]).varint(2, 7))
			}
			msg = msg.bytes(4, l)
			locs = append(locs, locID)
		}
		n := uint64(i + 1)
		var s pb
		if i%2 == 0 {
			s = s.packed(1, locs...).packed(2, n, n*10e6)
		} else { // unpacked repeated fields are legal too
			for _, l := range locs {
				s = s.varint(1, l)
			}
			s = s.varint(2, n).varint(2, n*10e6)
		}
		msg = msg.bytes(2, s)
	}
	for _, s := range strs {
		msg = msg.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestLayerAttribution(t *testing.T) {
	stacks := [][][]string{
		// An inlined geom helper counts as geom, not as its phys caller.
		{{"repro/internal/geom.Point.Dist", "repro/internal/phys.(*Channel).row"}, {"repro/internal/sim.(*Scheduler).Step"}},
		// Runtime frames above a layer are charged to it.
		{{"runtime.mallocgc"}, {"runtime.mapassign_fast64"}, {"repro/internal/aodv.(*Router).flood.func1"}, {"repro/internal/sim.(*Scheduler).Step"}},
		// No repro frame at all: background GC.
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}},
		// An internal package that is not a layer counts as its caller.
		{{"repro/internal/obs.(*Histogram).Observe"}, {"repro/internal/runner.Execute.func2"}},
		// The benchmark's own frames are not a layer either.
		{{"crypto/sha256.block"}, {"main.runOp"}},
	}
	p, err := parseProfile(handProfile(t, stacks))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.samples, int64(1+2+3+4+5); got != want {
		t.Errorf("samples = %d, want %d", got, want)
	}
	want := map[string]int64{"geom": 10e6, "aodv": 20e6, "gc": 30e6 + 50e6, "runner": 40e6}
	got := p.layerCPU()
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("%s = %d ns, want %d", l, got[l], want[l])
		}
	}
	if len(p.stacks[0]) != 3 {
		t.Errorf("inline frames not expanded: %v", p.stacks[0])
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	good := handProfile(t, [][][]string{{{"repro/internal/sim.f"}}})
	if _, err := parseProfile(good[:len(good)/2]); err == nil {
		t.Error("truncated gzip parsed")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb(nil).bytes(2, pb(nil).packed(1, 99).packed(2, 1, 1)))
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("profile without CPU columns parsed")
	}
}

// TestRealProfileShares profiles a short whole run and checks that the
// attribution covers every sample.
func TestRealProfileShares(t *testing.T) {
	w, _ := workloadByName("paper-fig8")
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	_, err := scenario.Run(w.single(1, 0.1))
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.samples == 0 {
		t.Skip("no samples collected")
	}
	ns := p.layerCPU()
	var total int64
	for _, v := range ns {
		total += v
	}
	var sum float64
	for _, l := range layers {
		sum += float64(ns[l]) / float64(total)
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("layer shares sum to %g", sum)
	}
	if ns["sim"] == 0 {
		t.Errorf("no sim samples in %d: %v", p.samples, ns)
	}
}
