// Command campaign executes a declarative simulation campaign — a grid
// of scheme × load × nodes × mobility × fading × seed runs — on a
// worker pool, streaming per-run JSONL results and printing an
// aggregate table. Campaigns come from JSON spec files or built-in
// presets; the JSONL output doubles as a checkpoint, so an interrupted
// campaign resumes where it stopped. Ctrl-C is a clean cancel: the
// checkpoint stays a valid campaign-order prefix for -resume.
//
// The heavy lifting lives in internal/serve (shared with the
// cmd/campaignd daemon) and internal/cli (the flag group shared with
// it), so a served results.jsonl and this command's -out file are
// byte-identical for the same spec.
//
//	campaign -preset fig8 -duration 100 -seeds 3 -out fig8.jsonl
//	campaign -preset fig8 -emit-spec > fig8.json   # edit, then:
//	campaign -spec fig8.json -out fig8.jsonl
//	campaign -spec fig8.json -out fig8.jsonl -resume
//	campaign -preset ablation-safety -loads 300,400 -csv
//	campaign -preset mobility -dry-run
//	campaign -preset bursty -loads 300 -seeds 1
//	campaign -preset clustered -topology grid,clusters -dry-run
//	campaign -preset scale -variants n=500,n=1000 -topology grid -dry-run
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/serve"
)

func main() {
	var cf cli.CampaignFlags
	cf.Register(flag.CommandLine)
	var exec runner.ExecOptions
	cli.BindExec(flag.CommandLine, &exec)
	flag.IntVar(&exec.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&exec.Timing, "timing", false, "record wall_ms/peak_queue per run and print a throughput summary (output becomes machine-dependent)")
	var lf cli.LogFlags
	lf.Register(flag.CommandLine)
	var (
		emitSpec = flag.Bool("emit-spec", false, "print the campaign as a JSON spec and exit")
		dryRun   = flag.Bool("dry-run", false, "list the expanded runs without executing")
		out      = flag.String("out", "results.jsonl", "JSONL results/checkpoint file (empty: none)")
		resume   = flag.Bool("resume", false, "skip runs already present in -out, append the rest")
		csv      = flag.Bool("csv", false, "emit the aggregate as CSV instead of a table")
		quiet    = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	log, err := lf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}

	camp, err := cf.Build()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(2)
	}

	if *emitSpec {
		b, err := json.MarshalIndent(camp.File(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(append(b, '\n'))
		return
	}

	runs, err := camp.Runs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dryRun {
		for _, r := range runs {
			fmt.Printf("%4d  %-50s seed=%d\n", r.Index, r.Key, r.Seed)
		}
		fmt.Fprintf(os.Stderr, "%d runs\n", len(runs))
		return
	}

	// Ctrl-C / SIGTERM cancels the context; Execute stops dispatching,
	// in-flight runs finish, the checkpoint stays resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	agg := runner.NewAggregate()
	progress := runner.Progress(nil)
	if !*quiet {
		progress = runner.ProgressFunc(func(ev runner.RunEvent) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", ev.Done, ev.Total)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		})
	}
	exec.Progress = runner.MultiProgress(agg, progress)
	exec.OnRetry = func(ev runner.RetryEvent) {
		log.Warn("run retried", "key", ev.Run.Key, "attempt", ev.Attempt, "err", ev.Err, "backoff", ev.Backoff)
	}
	sum, err := serve.RunCampaign(ctx, camp, *out, *resume, exec, serve.CheckpointOptions{})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr)
		if *out != "" {
			log.Warn("interrupted — rerun with -resume to continue", "checkpoint", *out)
		} else {
			log.Warn("interrupted")
		}
		os.Exit(130)
	}
	if err != nil {
		log.Error("campaign failed", "err", err)
		os.Exit(1)
	}

	fmt.Printf("\n## campaign %s (%d runs: %d executed, %d resumed, %.1fs wall)\n\n",
		camp.Name, sum.Total, sum.Executed, sum.Skipped, sum.Elapsed.Seconds())
	if ts, ok := agg.Throughput(); ok {
		fmt.Printf("timing: %d timed runs, %.2f runs/s per worker, p95 wall %.1f ms, %.0fx real time\n\n",
			ts.Runs, ts.RunsPerSec, ts.WallP95Ms, ts.SimTimeRate)
	}
	if *csv {
		err = agg.WriteCSV(os.Stdout)
	} else {
		err = agg.WriteTable(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Quarantined runs are typed records in the checkpoint, not aborts;
	// surface them and exit nonzero so scripts notice incomplete data.
	if sum.Failed > 0 {
		log.Error("runs quarantined as failed — rerun with -resume to retry them",
			"failed", sum.Failed, "checkpoint", *out)
		os.Exit(3)
	}
}
