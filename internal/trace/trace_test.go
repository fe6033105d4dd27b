package trace

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestRecordString(t *testing.T) {
	r := Record{
		At:     sim.Time(1500 * sim.Millisecond),
		Op:     OpSend,
		Node:   7,
		Kind:   packet.KindRTS,
		Detail: "dst=n9",
	}
	s := r.String()
	for _, want := range []string{"1.500000000", "s", "n7", "RTS", "dst=n9"} {
		if !strings.Contains(s, want) {
			t.Errorf("record %q missing %q", s, want)
		}
	}
	// Kindless records render a dash.
	r2 := Record{Op: OpDrop, Node: 1}
	if !strings.Contains(r2.String(), " - ") {
		t.Errorf("kindless record %q missing dash", r2.String())
	}
}

func TestOpStrings(t *testing.T) {
	ops := map[Op]string{
		OpSend: "s", OpRecv: "r", OpRecvErr: "e", OpDrop: "D",
		OpForward: "f", OpDefer: "w", OpAnnounce: "a", OpRoute: "R",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if Op(99).String() != "?" {
		t.Error("unknown op should render ?")
	}
}

func TestWriter(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	send := Record{Op: OpSend, Node: 1, Kind: packet.KindCTS}
	recv := Record{Op: OpRecv, Node: 2, Kind: packet.KindCTS}
	w.Trace(send)
	w.Trace(recv)
	if want := send.String() + "\n" + recv.String() + "\n"; sb.String() != want {
		t.Fatalf("writer output = %q, want %q", sb.String(), want)
	}
}

func TestBuffer(t *testing.T) {
	var b Buffer
	b.Trace(Record{Op: OpSend, Node: 1})
	b.Trace(Record{Op: OpDrop, Node: 2})
	b.Trace(Record{Op: OpSend, Node: 3})
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	sends := b.OfOp(OpSend)
	if len(sends) != 2 || sends[0].Node != 1 || sends[1].Node != 3 {
		t.Fatalf("OfOp(OpSend) = %v", sends)
	}
}

func TestBufferCap(t *testing.T) {
	b := Buffer{Cap: 2}
	for i := 0; i < 5; i++ {
		b.Trace(Record{Op: OpSend})
	}
	if b.Len() != 2 {
		t.Fatalf("capped Len = %d, want 2", b.Len())
	}
}
