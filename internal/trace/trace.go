// Package trace provides ns-2-style event tracing: a per-simulation
// sink that components write structured records to, with text
// formatting. The paper's debugging workflow on ns-2
// leaned on trace files; this is the equivalent for this codebase, used
// by cmd/pcmacsim's -trace flag and by tests that assert on protocol
// event sequences.
package trace

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/packet"
	"repro/internal/sim"
)

// Op enumerates traceable event classes, mirroring ns-2's s/r/d/f
// markers plus the power-control events this paper adds.
type Op uint8

// Trace operations.
const (
	OpSend     Op = iota + 1 // frame put on the air
	OpRecv                   // frame decoded
	OpRecvErr                // frame sensed but not decoded (collision)
	OpDrop                   // packet dropped (queue, retry, route)
	OpForward                // packet forwarded by routing
	OpDefer                  // transmission deferred (PCMAC tolerance)
	OpAnnounce               // tolerance announcement broadcast
	OpRoute                  // routing event (discovery, RERR, ...)
)

// String implements fmt.Stringer with ns-2-flavoured single letters.
func (o Op) String() string {
	switch o {
	case OpSend:
		return "s"
	case OpRecv:
		return "r"
	case OpRecvErr:
		return "e"
	case OpDrop:
		return "D"
	case OpForward:
		return "f"
	case OpDefer:
		return "w"
	case OpAnnounce:
		return "a"
	case OpRoute:
		return "R"
	default:
		return "?"
	}
}

// Record is one trace line.
type Record struct {
	At   sim.Time
	Op   Op
	Node packet.NodeID
	// Kind is the MAC frame kind for frame events (0 otherwise).
	Kind packet.FrameKind
	// Detail is free-form context ("retry=3", "tol=2.1e-11", ...).
	Detail string
}

// String renders the record in a stable, grep-friendly format.
func (r Record) String() string {
	kind := "-"
	if r.Kind != 0 {
		kind = r.Kind.String()
	}
	return fmt.Sprintf("%.9f %s %v %s %s", r.At.Seconds(), r.Op, r.Node, kind, r.Detail)
}

// Sink receives trace records. A nil Sink means tracing is off:
// callers check for nil before building a Record, so a run without a
// sink pays nothing for its trace sites.
type Sink interface {
	Trace(r Record)
}

// Writer is a Sink that formats records as text lines to an io.Writer.
// It is safe for concurrent use (the experiment harness runs scenarios
// in parallel; giving two scenarios the same writer must not interleave
// bytes mid-line).
type Writer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriter wraps w as a trace sink.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Trace implements Sink.
func (t *Writer) Trace(r Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fmt.Fprintln(t.w, r.String())
}

// Buffer is a Sink that retains records in memory for tests.
type Buffer struct {
	mu      sync.Mutex
	Records []Record
	// Cap bounds retention; zero means unbounded.
	Cap int
}

// Trace implements Sink.
func (b *Buffer) Trace(r Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Cap > 0 && len(b.Records) >= b.Cap {
		return
	}
	b.Records = append(b.Records, r)
}

// OfOp returns the retained records with the given op.
func (b *Buffer) OfOp(op Op) []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Record
	for _, r := range b.Records {
		if r.Op == op {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the number of retained records.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.Records)
}
