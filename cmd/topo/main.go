// Command topo draws a scenario's topology: an ASCII map of node
// positions with flow endpoints marked, followed by the decode-range
// connectivity matrix — the first thing to look at when a scenario
// behaves oddly.
//
//	topo -seed 1                       # the paper's 50-node layout
//	topo -fig 4                        # the Figure 4 static topology
//	topo -config scenario.json -at 100 # positions 100 s into the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phys"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/viz"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "random seed")
		fig        = flag.Int("fig", 0, "use a figure topology (1, 4, or 6) instead of the 50-node setup")
		configPath = flag.String("config", "", "load the scenario from a JSON file")
		at         = flag.Float64("at", 0, "sample mobile positions at this simulated second")
		cols       = flag.Int("cols", 72, "map width in characters")
		rows       = flag.Int("rows", 28, "map height in characters")
	)
	flag.Parse()

	var opts scenario.Options
	switch {
	case *configPath != "":
		var err error
		opts, err = scenario.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *fig == 1:
		opts = scenario.Fig1Options(mac.PCMAC)
	case *fig == 4:
		opts = scenario.Fig4Options(mac.PCMAC)
	case *fig == 6:
		opts = scenario.Fig6Options(mac.Scheme1)
	default:
		opts = scenario.Options{Scheme: mac.Basic, Seed: *seed}
	}
	opts.Seed = *seed

	nw, err := scenario.Build(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := draw(os.Stdout, nw, sim.Time(sim.DurationOf(*at)), *cols, *rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// draw prints nw's map at the instant sample, then its decode-range
// connectivity there.
func draw(w io.Writer, nw *scenario.Network, sample sim.Time, cols, rows int) error {
	field := geom.NewField(nw.Opts.FieldW, nw.Opts.FieldH)
	m := viz.NewMap(field, cols, rows)
	for _, n := range nw.Nodes {
		m.Add(n.ID, n.Mob.Pos(sample))
	}
	var pairs [][2]packet.NodeID
	for _, src := range nw.Sources {
		pairs = append(pairs, [2]packet.NodeID{src.Src, src.Dst})
	}
	m.MarkFlows(pairs)

	fmt.Fprintf(w, "%s, %d nodes, %d flows, t=%.0fs (S=source D=destination X=both)\n",
		nw.Opts.Scheme, len(nw.Nodes), len(pairs), sample.Seconds())
	if err := m.Render(w); err != nil {
		return err
	}
	return connectivity(w, nw, sample)
}

// connectivity prints each node's decode-range neighbours at the
// instant sample. Under shadowing the data channel's model draws a
// fresh fade per call, so the relation uses its deterministic mean: a
// topology listing is one symmetric relation, not one random sample.
func connectivity(w io.Writer, nw *scenario.Network, sample sim.Time) error {
	var ids []packet.NodeID
	var pos []geom.Point
	for _, n := range nw.Nodes {
		ids = append(ids, n.ID)
		pos = append(pos, n.Mob.Pos(sample))
	}
	rxPower := nw.DataCh.Model().ReceivedPower
	if sh, ok := nw.DataCh.Model().(*phys.Shadowing); ok {
		rxPower = sh.MeanReceivedPower
	}
	fmt.Fprintf(w, "\ndecode-range neighbours at the maximal power (%.1f mW, %.0f m):\n",
		power.MaxW*1e3, phys.NewTwoRayGround().RangeForTxPower(power.MaxW, phys.RxThreshW))
	return viz.Connectivity(w, ids, pos, power.MaxW, phys.RxThreshW, rxPower)
}
