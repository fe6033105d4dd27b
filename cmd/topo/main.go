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
	sample := sim.Time(sim.DurationOf(*at))

	field := geom.NewField(nw.Opts.FieldW, nw.Opts.FieldH)
	m := viz.NewMap(field, *cols, *rows)
	var ids []packet.NodeID
	var pos []geom.Point
	for _, n := range nw.Nodes {
		p := n.Mob.Pos(sample)
		m.Add(n.ID, p)
		ids = append(ids, n.ID)
		pos = append(pos, p)
	}
	var pairs [][2]packet.NodeID
	for _, src := range nw.Sources {
		pairs = append(pairs, [2]packet.NodeID{src.Src, src.Dst})
	}
	m.MarkFlows(pairs)

	fmt.Printf("%s, %d nodes, %d flows, t=%.0fs (S=source D=destination X=both)\n",
		nw.Opts.Scheme, len(nw.Nodes), len(pairs), *at)
	if err := m.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\ndecode-range neighbours at the maximal power (%.1f mW, %.0f m):\n",
		power.MaxW*1e3, phys.NewTwoRayGround().RangeForTxPower(power.MaxW, phys.RxThreshW))
	if err := viz.Connectivity(os.Stdout, ids, pos, power.MaxW, phys.RxThreshW, nw.DataCh.Model().ReceivedPower); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
