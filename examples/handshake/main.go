// Handshake timeline: prints the frame-by-frame timeline of one data
// packet's delivery — the four-way RTS-CTS-DATA-ACK of the paper's
// Figure 2 under basic 802.11, and PCMAC's three-way RTS-CTS-DATA with
// its power-control broadcast alongside.
//
//	go run ./examples/handshake
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// sniffer records everything decodable on a channel.
type sniffer struct {
	label  string
	events *[]event
}

type event struct {
	at    sim.Time
	dur   sim.Duration
	what  string
	power float64
}

func (s *sniffer) RadioRxBegin(tx *phys.Transmission, p float64) {}
func (s *sniffer) RadioRx(tx *phys.Transmission, p float64, err bool) {
	if err {
		return
	}
	var what string
	switch f := tx.Payload.(type) {
	case *packet.Frame:
		what = fmt.Sprintf("%-5s %v -> %v", f.Kind, f.Src, f.Dst)
	case []byte:
		cf, e := packet.UnmarshalCtrlFrame(f)
		if e != nil {
			return
		}
		what = fmt.Sprintf("CTRL  %v tolerance=%.3g W", cf.Node, cf.ToleranceW)
	default:
		return
	}
	*s.events = append(*s.events, event{tx.Start, tx.Duration, s.label + what, tx.PowerW})
}
func (s *sniffer) RadioCarrierBusy()              {}
func (s *sniffer) RadioCarrierIdle()              {}
func (s *sniffer) RadioTxDone(*phys.Transmission) {}

func timeline(scheme mac.Scheme) []event {
	nw, err := scenario.Build(scenario.Options{
		Scheme:          scheme,
		Static:          []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}},
		FlowPairs:       [][2]packet.NodeID{{0, 1}},
		OfferedLoadKbps: 4, // one packet roughly every second
		Duration:        3 * sim.Second,
		Warmup:          sim.Second, // metrics unused; the sniffers record the timeline
		Seed:            1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var events []event
	pos := geom.Point{X: 50, Y: 20}
	nw.DataCh.AttachRadio(90, func() geom.Point { return pos }, &sniffer{label: "data: ", events: &events})
	if nw.CtrlCh != nil {
		nw.CtrlCh.AttachRadio(91, func() geom.Point { return pos }, &sniffer{label: "ctrl: ", events: &events})
	}
	nw.Run()
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

func printExchange(name string, events []event, max int) {
	fmt.Printf("--- %s ---\n", name)
	// Skip the AODV route-discovery frames at the start of the run:
	// show the window beginning at the last RTS from the data source,
	// which opens the final (steady-state) data exchange.
	start := 0
	for i, e := range events {
		if e.what == "data: RTS   n0 -> n1" {
			start = i
		}
	}
	events = events[start:]
	if len(events) == 0 {
		fmt.Println("  (no frames)")
		return
	}
	t0 := events[0].at
	for i, e := range events {
		if i >= max {
			break
		}
		fmt.Printf("  t=%8.0fus  +%5.0fus  %-34s @ %6.1f mW\n",
			float64(e.at.Sub(t0))/float64(sim.Microsecond),
			e.dur.Seconds()*1e6, e.what, e.power*1e3)
	}
}

func main() {
	fmt.Println("One data packet, A(0m) -> B(100m), seen by a sniffer:")
	fmt.Println()
	printExchange("basic 802.11: four-way RTS-CTS-DATA-ACK (Figure 2)", timeline(mac.Basic), 4)
	fmt.Println()
	printExchange("PCMAC: three-way RTS-CTS-DATA + control-channel broadcast", timeline(mac.PCMAC), 5)
	fmt.Println()
	fmt.Println("Note the missing ACK under PCMAC (implicit acknowledgment rides in")
	fmt.Println("the next CTS), the reduced transmit powers once the power history")
	fmt.Println("table has learned the link, and B's tolerance broadcast at the")
	fmt.Println("start of its DATA reception.")
}
