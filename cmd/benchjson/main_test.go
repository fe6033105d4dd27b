package main

import (
	"reflect"
	"testing"
)

func TestParseBench(t *testing.T) {
	cases := []struct {
		line string
		want Result
		ok   bool
	}{
		{
			line: "BenchmarkTimerChurn-8   	30000000	        41.2 ns/op	       0 B/op	       0 allocs/op",
			want: Result{Name: "BenchmarkTimerChurn", Pkg: "p", GOMAXPROCS: 8, Iterations: 30000000,
				Metrics: map[string]float64{"ns/op": 41.2, "B/op": 0, "allocs/op": 0}},
			ok: true,
		},
		{
			// GOMAXPROCS=1: go test prints no suffix.
			line: "BenchmarkSchedulerChurn/q=calendar/pending=0 	 1000 	 120 ns/op",
			want: Result{Name: "BenchmarkSchedulerChurn/q=calendar/pending=0", Pkg: "p", GOMAXPROCS: 1, Iterations: 1000,
				Metrics: map[string]float64{"ns/op": 120}},
			ok: true,
		},
		{
			line: "BenchmarkFig8-2 	 1 	 3.5e+09 ns/op 	 412.5 kbps 	 0.97 pdr",
			want: Result{Name: "BenchmarkFig8", Pkg: "p", GOMAXPROCS: 2, Iterations: 1,
				Metrics: map[string]float64{"ns/op": 3.5e9, "kbps": 412.5, "pdr": 0.97}},
			ok: true,
		},
		{line: "BenchmarkBroken-4 	 x 	 1 ns/op"},           // iterations not a number
		{line: "BenchmarkOdd-4 	 10 	 1 ns/op 	 2"},         // dangling value
		{line: "BenchmarkNaNUnit-4 	 10 	 fast ns/op"},      // value not a number
		{line: "BenchmarkTimerChurn-8 --- FAIL: something"}, // not a result line
	}
	for _, c := range cases {
		got, ok := parseBench(c.line, "p")
		if ok != c.ok || (ok && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("parseBench(%q) = %+v, %v; want %+v, %v", c.line, got, ok, c.want, c.ok)
		}
	}
}
