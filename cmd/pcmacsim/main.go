// Command pcmacsim runs a single simulation of the paper's evaluation
// setup and prints the metrics. It is the quickest way to poke at one
// configuration:
//
//	pcmacsim -scheme pcmac -load 400 -duration 60
//	pcmacsim -scheme basic -nodes 30 -flows 6 -seed 7 -v
//	pcmacsim -scheme scheme2 -nodes 1000 -flows 200 -field 4472 -topology grid -duration 30
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/mac"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		schemeName = flag.String("scheme", "pcmac", "MAC protocol: basic|scheme1|scheme2|pcmac")
		load       = flag.Float64("load", 400, "aggregate offered load (kbps)")
		nodes      = flag.Int("nodes", 50, "number of terminals")
		flows      = flag.Int("flows", 10, "number of source-destination pairs")
		trafficM   = flag.String("traffic", "", "workload model: cbr|poisson|onoff|pareto|reqresp (default cbr)")
		topology   = flag.String("topology", "", "placement: uniform|grid|clusters|corridor (default: mobile random waypoint)")
		respBytes  = flag.Int("resp-bytes", 0, "reqresp: response payload bytes (default: packet size)")
		duration   = flag.Float64("duration", 60, "simulated seconds")
		warmup     = flag.Float64("warmup", 5, "metric warmup seconds")
		speed      = flag.Float64("speed", 3, "node speed (m/s)")
		pause      = flag.Float64("pause", 3, "waypoint pause (s)")
		field      = flag.Float64("field", 1000, "square field edge (m)")
		seed       = flag.Int64("seed", 1, "random seed")
		noCtrl     = flag.Bool("no-ctrl-channel", false, "PCMAC ablation: disable the power control channel")
		no3way     = flag.Bool("no-three-way", false, "PCMAC ablation: keep the four-way handshake")
		safety     = flag.Float64("safety", 0.7, "PCMAC tolerance safety factor")
		shadowing  = flag.Float64("shadowing", 0, "log-normal shadowing sigma in dB (0 = two-ray ground)")
		battery    = flag.Float64("battery", 0, "per-node battery capacity in joules (0 = mains-powered, no deaths)")
		eprofile   = flag.String("energy-profile", "", "radio draw profile: wavelan|sensor (default wavelan)")
		configPath = flag.String("config", "", "load the scenario from a JSON file (other flags ignored)")
		tracePath  = flag.String("trace", "", "write an ns-2-style MAC event trace to this file")
		jsonlPath  = flag.String("jsonl", "", "append the run's result record (campaign JSONL schema) to this file, - for stdout")
		timeline   = flag.Float64("timeline", 0, "print a throughput/delay timeline with this bucket width in seconds")
		verbose    = flag.Bool("v", false, "print per-flow and per-layer counters")
	)
	flag.Parse()

	var opts scenario.Options
	if *configPath != "" {
		var err error
		opts, err = scenario.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		if err := rejectExplicitZeros(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		scheme, err := mac.ParseScheme(*schemeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts = scenario.Options{
			Scheme:             scheme,
			Nodes:              *nodes,
			Flows:              *flows,
			Traffic:            *trafficM,
			Topology:           *topology,
			ResponseBytes:      *respBytes,
			OfferedLoadKbps:    *load,
			FieldW:             *field,
			FieldH:             *field,
			SpeedMin:           *speed,
			SpeedMax:           *speed,
			Pause:              sim.DurationOf(*pause),
			Duration:           sim.DurationOf(*duration),
			Warmup:             sim.DurationOf(*warmup),
			Seed:               *seed,
			SafetyFactor:       *safety,
			DisableCtrlChannel: *noCtrl,
			DisableThreeWay:    *no3way,
			ShadowingSigmaDB:   *shadowing,
			EnergyProfile:      *eprofile,
			BatteryJ:           *battery,
		}
	}
	if *timeline > 0 {
		opts.TimelineBucket = sim.DurationOf(*timeline)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Trace = trace.NewWriter(f)
	}
	res, err := scenario.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonlPath != "" {
		w := os.Stdout
		if *jsonlPath != "-" {
			f, err := os.OpenFile(*jsonlPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		// Key the record off the defaulted options the run actually
		// used, so it stays consistent with its own fields.
		if err := runner.WriteResult(w, runner.ResultOf(runner.SingleRun(res.Opts), res)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *jsonlPath == "-" {
			return
		}
	}

	fmt.Printf("scheme                    %s\n", res.Opts.Scheme)
	fmt.Printf("offered load              %.0f kbps over %d flows\n", res.Opts.OfferedLoadKbps, res.Opts.Flows)
	fmt.Printf("aggregate throughput      %.1f kbps\n", res.ThroughputKbps)
	fmt.Printf("average end-to-end delay  %.1f ms\n", res.AvgDelayMs)
	fmt.Printf("delay p50/p95/p99         %.1f / %.1f / %.1f ms\n", res.DelayP50Ms, res.DelayP95Ms, res.DelayP99Ms)
	fmt.Printf("jitter                    %.1f ms\n", res.JitterMs)
	fmt.Printf("packet delivery ratio     %.3f\n", res.PDR)
	fmt.Printf("Jain fairness             %.3f\n", res.JainFairness)
	fmt.Printf("radiated energy           %.2f J data + %.2f J control\n", res.RadiatedEnergyJ, res.CtrlRadiatedEnergyJ)
	fmt.Printf("radiated per delivered KB %.3f mJ\n", res.RadiatedPerDeliveredKB()*1e3)
	fmt.Printf("consumed energy           %.1f J (tx %.1f + rx %.1f + idle %.1f + overhear %.1f)\n",
		res.ConsumedEnergyJ, res.EnergyTxJ, res.EnergyRxJ, res.EnergyIdleJ, res.EnergyOverhearJ)
	fmt.Printf("consumed per delivered KB %.3f mJ\n", res.ConsumedPerKBJ*1e3)
	fmt.Printf("energy fairness           %.3f\n", res.EnergyFairness)
	if res.Opts.BatteryJ > 0 {
		if res.DeadNodes > 0 {
			fmt.Printf("node deaths               %d of %d (first at %.1f s)\n", res.DeadNodes, res.Opts.Nodes, res.TimeToFirstDeathS)
		} else {
			fmt.Printf("node deaths               0 of %d\n", res.Opts.Nodes)
		}
	}
	fmt.Printf("simulator events          %d\n", res.Events)

	if res.Timeline != nil {
		fmt.Println("\ntimeline:")
		if err := res.Timeline.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *verbose {
		fmt.Println("\nper-flow:")
		for _, f := range res.Flows {
			fmt.Printf("  flow %2d: sent=%5d delivered=%5d pdr=%.3f delay=%.1fms p95=%.1fms jitter=%.1fms\n",
				f.FlowID, f.Sent, f.Delivered, f.PDR(), f.MeanDelayMs(), f.DelayP95Ms, f.JitterMs)
		}
		m := res.MAC
		fmt.Println("\nmac totals:")
		fmt.Printf("  tx: rts=%d cts=%d data=%d ack=%d broadcast=%d\n", m.TxRTS, m.TxCTS, m.TxData, m.TxAck, m.TxBroadcast)
		fmt.Printf("  rx: clean=%d overheard=%d errored=%d\n", m.RxClean, m.RxOverheard, m.RxError)
		fmt.Printf("  errored-for-me: rts=%d cts=%d data=%d ack=%d\n", m.ErrRTSForMe, m.ErrCTSForMe, m.ErrDataForMe, m.ErrAckForMe)
		fmt.Printf("  timeouts: cts=%d ack=%d data=%d  retries=%d\n", m.CTSTimeout, m.ACKTimeout, m.DataTimeout, m.Retries)
		fmt.Printf("  drops: retry=%d queue=%d  duplicates=%d\n", m.DropRetry, m.DropQueue, m.Duplicates)
		fmt.Printf("  pcmac: announce=%d defer=%d implicit-retx=%d\n", m.ToleranceAnnounce, m.ToleranceDefer, m.ImplicitRetx)
		c := res.Ctrl
		fmt.Printf("  ctrl channel: sent=%d recv=%d corrupted=%d skipped=%d\n", c.Sent, c.Received, c.Corrupted, c.Skipped)
		r := res.Routing
		fmt.Println("\naodv totals:")
		fmt.Printf("  rreq s/r=%d/%d rrep s/r=%d/%d rerr s/r=%d/%d\n", r.RREQSent, r.RREQRecv, r.RREPSent, r.RREPRecv, r.RERRSent, r.RERRRecv)
		fmt.Printf("  forwarded=%d drops: noroute=%d linkfail=%d ttl=%d buffer=%d qfull=%d\n",
			r.Forwarded, r.NoRouteDrop, r.LinkFailDrop, r.TTLDrop, r.BufferDrop, r.QueueFullDrop)
	}
}

// zeroMeansDefault lists the flags whose zero the scenario reads as
// unset, with the default it runs instead.
var zeroMeansDefault = map[string]string{
	"speed":  "3 m/s",
	"pause":  "3 s",
	"warmup": "5 s",
}

// rejectExplicitZeros fails when one of zeroMeansDefault's flags is
// set to 0 on the command line: the scenario would silently run its
// default instead.
func rejectExplicitZeros(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		def, ok := zeroMeansDefault[f.Name]
		if ok && err == nil && f.Value.(flag.Getter).Get() == 0.0 {
			err = fmt.Errorf("-%s 0 would run the default %s (0 means unset); give a positive value", f.Name, def)
		}
	})
	return err
}
