package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
	"repro/internal/scenario/scenariotest"
	"repro/internal/sim"
)

// TestHeapIdentical is the scheduler's whole-run determinism proof:
// every workload runs once on the calendar queue and once with its
// pending set moved onto the reference binary heap right after Build,
// and the two JSONL streams must match byte for byte. The kernel's
// (time, seq) order is total, so any divergence is a queue ordering
// bug, not a tolerance question.
func TestHeapIdentical(t *testing.T) {
	for _, w := range scenariotest.IdentityWorkloads(t) {
		t.Run(w.Name, func(t *testing.T) {
			calendar, calNets := scenariotest.RunJSONL(t, w, nil)
			heap, heapNets := scenariotest.RunJSONL(t, w, func(nw *scenario.Network) { sim.UseHeap(nw.Sched) })
			for i := range calNets {
				if sim.OnHeap(calNets[i].Sched) || !sim.OnHeap(heapNets[i].Sched) {
					t.Fatalf("run %d: on heap = %v (calendar side), %v (heap side); want false, true",
						i, sim.OnHeap(calNets[i].Sched), sim.OnHeap(heapNets[i].Sched))
				}
			}
			if !bytes.Equal(calendar, heap) {
				t.Fatalf("calendar JSONL differs from heap:\n--- calendar ---\n%s--- heap ---\n%s", calendar, heap)
			}
		})
	}
}
