// Package idtab is a small open-addressed hash table keyed by uint64,
// for the per-node state every received frame touches: the power
// history (keyed by neighbour ID) and the AODV duplicate cache (keyed
// by flood origin and RREQ ID).
//
// It probes linearly over a power-of-two slot array, deletes by
// backward shift (no tombstones), purges in place, and allocates only
// when it grows. It exposes no iteration, so no caller can let slot
// order reach output.
package idtab

import "math/bits"

// minCap is the slot count of a table's first allocation.
const minCap = 8

// Table maps uint64 keys to values of type V. The zero value is an
// empty table ready to use. The key ^uint64(0) is reserved: Put
// panics on it, and it is never found.
type Table[V any] struct {
	// Stale, when set, lets Put make room without growing: before a
	// full table grows, Put drops every entry for which Stale reports
	// true, and grows only if that leaves the table at least half
	// full. Stale may read a clock, but must answer the same for a
	// value throughout one Put.
	Stale func(V) bool

	slots []slot[V]
	n     int
	shift uint8 // 64 - log2(len(slots))
}

type slot[V any] struct {
	k   uint64 // key+1; 0 marks an empty slot
	val V
}

// Len returns the number of stored entries.
func (t *Table[V]) Len() int { return t.n }

// Cap returns the number of slots.
func (t *Table[V]) Cap() int { return len(t.slots) }

// home returns k's preferred slot (Fibonacci hashing: the multiply
// spreads dense small IDs and high-word origins alike over the top
// bits).
func (t *Table[V]) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// find returns the slot holding k, or -1.
func (t *Table[V]) find(k uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i = (i + 1) & mask {
		// The empty check comes first, so the reserved key (stored
		// form 0) never matches.
		switch t.slots[i].k {
		case 0:
			return -1
		case k + 1:
			return int(i)
		}
	}
}

// Get returns the value stored under k.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k, replacing any previous value.
func (t *Table[V]) Put(k uint64, v V) {
	if i := t.find(k); i >= 0 {
		t.slots[i].val = v
		return
	}
	if k == ^uint64(0) {
		panic("idtab: reserved key")
	}
	if t.n+1 > len(t.slots)-len(t.slots)/4 {
		t.makeRoom()
	}
	mask := uint64(len(t.slots) - 1)
	i := t.home(k)
	for t.slots[i].k != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot[V]{k: k + 1, val: v}
	t.n++
}

// Delete removes k and reports whether it was present.
func (t *Table[V]) Delete(k uint64) bool {
	i := t.find(k)
	if i < 0 {
		return false
	}
	t.deleteAt(uint64(i))
	return true
}

// purge removes every entry for which drop reports true. drop must
// answer the same for a value throughout the call: an entry shifted
// back across the end of the slot array is offered to it a second
// time.
func (t *Table[V]) purge(drop func(V) bool) {
	for i := 0; i < len(t.slots); {
		if t.slots[i].k != 0 && drop(t.slots[i].val) {
			t.deleteAt(uint64(i))
			continue // a shifted entry may now sit at i
		}
		i++
	}
}

// deleteAt empties slot i, then shifts back every later entry of the
// probe run whose home lies at or before the hole, so lookups never
// need tombstones.
func (t *Table[V]) deleteAt(i uint64) {
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].k != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its
		// probe path: its home is no nearer to j than i is.
		if (j-t.home(t.slots[j].k-1))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[V]{}
	t.n--
}

// makeRoom frees a slot for one more entry: a purge of stale entries
// when that leaves the table under half full, else a doubling.
func (t *Table[V]) makeRoom() {
	if t.Stale != nil && t.n > 0 {
		t.purge(t.Stale)
		if t.n < len(t.slots)/2 {
			return
		}
	}
	t.resize(max(minCap, 2*len(t.slots)))
}

// resize rehashes every entry into c slots (a power of two).
func (t *Table[V]) resize(c int) {
	old := t.slots
	t.slots = make([]slot[V], c)
	t.shift = uint8(64 - bits.TrailingZeros(uint(c)))
	mask := uint64(c - 1)
	for _, s := range old {
		if s.k == 0 {
			continue
		}
		i := t.home(s.k - 1)
		for t.slots[i].k != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
