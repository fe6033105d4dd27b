package idtab

import "testing"

// FuzzTableMatchesMap decodes the input into put, get, delete and
// purge ops on a Table and on a Go map, and after every op requires
// the same length and the same value under every key either has held.
// Keys come from a small dense range (probe-run collisions, deletes
// inside runs, wrap-around at the end of the slot array) or from
// origin<<32|id pairs like the duplicate cache's. When the first byte
// is odd the table carries a Stale hook, so inserts may purge instead
// of growing; the map side then forgets exactly the stale entries the
// table dropped, and the check requires every live entry kept.
//
//	go test -run '^$' -fuzz FuzzTableMatchesMap -fuzztime 15s ./internal/idtab
func FuzzTableMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 2, 1, 3, 4, 1, 2})
	f.Add([]byte{1, 0, 9, 1, 0, 17, 2, 0, 25, 3, 5, 6, 0, 33, 4, 4, 1})
	seq := make([]byte, 0, 600)
	seq = append(seq, 1)
	for i := 0; i < 200; i++ {
		seq = append(seq, 0, byte(i), byte(i*7))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		var tab Table[uint64]
		stale := func(v uint64) bool { return v%3 == 0 }
		if next()%2 == 1 {
			tab.Stale = stale
		}
		want := map[uint64]uint64{}
		keys := map[uint64]bool{}
		key := func() uint64 {
			k := next()
			if k >= 128 {
				return (k&7)<<32 | next() // origin<<32 | id
			}
			return k % 64
		}
		for op := 0; len(data) > 0; op++ {
			switch next() % 5 {
			case 0, 1:
				k, v := key(), next()
				tab.Put(k, v)
				want[k] = v
				keys[k] = true
				if tab.Stale != nil {
					// A full table may have purged stale entries
					// rather than grow: forget those the table lacks.
					for mk, mv := range want {
						if _, ok := tab.Get(mk); !ok {
							if !stale(mv) {
								t.Fatalf("op %d: put dropped live key %#x (value %d)", op, mk, mv)
							}
							delete(want, mk)
						}
					}
				}
			case 2:
				k := key()
				_, had := want[k]
				if got := tab.Delete(k); got != had {
					t.Fatalf("op %d: Delete(%#x) = %v, want %v", op, k, got, had)
				}
				delete(want, k)
			case 3:
				m := next()%4 + 2
				drop := func(v uint64) bool { return v%m == 0 }
				for k, v := range want {
					if drop(v) {
						delete(want, k)
					}
				}
				tab.purge(drop)
			case 4:
				k := key()
				v, ok := tab.Get(k)
				if wv, wok := want[k]; ok != wok || v != wv {
					t.Fatalf("op %d: Get(%#x) = %d, %v, want %d, %v", op, k, v, ok, wv, wok)
				}
			}
			if tab.Len() != len(want) {
				t.Fatalf("op %d: Len = %d, want %d", op, tab.Len(), len(want))
			}
			if c := tab.Cap(); c != 0 && (c&(c-1) != 0 || tab.Len() > c-c/4) {
				t.Fatalf("op %d: %d entries in %d slots", op, tab.Len(), c)
			}
			for k := range keys {
				v, ok := tab.Get(k)
				if wv, wok := want[k]; ok != wok || v != wv {
					t.Fatalf("op %d: key %#x = %d, %v, want %d, %v", op, k, v, ok, wv, wok)
				}
			}
		}
	})
}

// TestReservedKey: the one key the slot encoding cannot store is
// refused on Put and never found.
func TestReservedKey(t *testing.T) {
	var tab Table[int]
	for k := uint64(0); k < 20; k++ {
		tab.Put(k, int(k))
	}
	if _, ok := tab.Get(^uint64(0)); ok {
		t.Fatal("reserved key found")
	}
	if tab.Delete(^uint64(0)) {
		t.Fatal("reserved key deleted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of the reserved key did not panic")
		}
	}()
	tab.Put(^uint64(0), 1)
}

// TestStalePurgeBoundsCapacity: with a Stale hook, a stream of
// distinct keys whose values expire keeps the table at a small
// multiple of its live entries instead of growing without bound.
func TestStalePurgeBoundsCapacity(t *testing.T) {
	const live = 100
	var now uint64
	tab := Table[uint64]{Stale: func(until uint64) bool { return now >= until }}
	for now = 0; now < 100*live; now++ {
		tab.Put(now, now+live)
		if c := tab.Cap(); c > 4*live {
			t.Fatalf("at %d: %d slots for %d live entries", now, c, live)
		}
	}
	for k := now - live; k < now; k++ {
		if _, ok := tab.Get(k); !ok {
			t.Fatalf("live key %d purged", k)
		}
	}
}
