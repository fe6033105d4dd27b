package sim

import "testing"

// FuzzQueueMatchesHeap decodes the input into push/remove/pop ops on a
// heap and a calendar queue and requires the same (at, seq) pop stream
// and the same length after every op. Push delays are drawn from
// classes {0, sub-µs, µs, ms, s, near MaxTime} so inputs reach ties,
// sub-width clusters, year advances, ladder parking and width retunes.
//
// The seed corpus is in testdata/fuzz/FuzzQueueMatchesHeap; plain
// go test replays it.
//
//	go test -run '^$' -fuzz FuzzQueueMatchesHeap -fuzztime 15s ./internal/sim
func FuzzQueueMatchesHeap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := newQueueDiff(t)
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			switch next() % 4 {
			case 0, 1:
				class, n := next()%6, Duration(next())
				var dt Duration
				switch class {
				case 1:
					dt = n * 3 // sub-µs
				case 2:
					dt = n * Microsecond
				case 3:
					dt = n * Millisecond
				case 4:
					dt = n * Second
				}
				at := d.now.Add(dt)
				if at < d.now || class == 5 {
					// Saturate an overflowing delay; near-MaxTime
					// pushes stay at or after now.
					at = max(MaxTime-Time(n), d.now)
				}
				d.push(at)
			case 2:
				if len(d.pending[0]) > 0 {
					d.remove(next() % len(d.pending[0]))
				}
			case 3:
				d.pop()
			}
		}
		d.drain()
	})
}
