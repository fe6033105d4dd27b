// Command campaignd is the campaign daemon: a long-lived HTTP service
// that accepts campaign specs, executes their deterministic run lists on
// a worker pool, checkpoints per-campaign JSONL results under a state
// directory, and streams live progress over server-sent events.
// Kill it mid-campaign and restart with the same -dir: every persisted
// campaign resumes from its checkpoint and converges to a results.jsonl
// byte-identical to an uninterrupted run (and to cmd/campaign's output
// for the same spec).
//
//	campaignd -addr :8080 -dir campaignd-state
//	campaignd -dir state -preset bursty -loads 300 -seeds 1   # submit at boot
//
//	curl -s localhost:8080/campaigns -d @fig8.json            # submit
//	curl -s localhost:8080/campaigns/<id>                     # status
//	curl -N  localhost:8080/campaigns/<id>/events             # SSE stream
//	curl -s  localhost:8080/campaigns/<id>/results.jsonl      # checkpoint
//	curl -s  localhost:8080/metrics                           # Prometheus
//
// The execution flags (-workers, -timing, -retries, -run-timeout,
// -no-retry-failed) bind straight onto serve.Options.Exec and
// -sync-every onto serve.Options.Checkpoint; they apply to every
// campaign the daemon runs. See docs/api.md for the full endpoint,
// event and metric reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	var cf cli.CampaignFlags
	cf.Register(flag.CommandLine)
	var opts serve.Options
	cli.BindExec(flag.CommandLine, &opts.Exec)
	flag.IntVar(&opts.Exec.Workers, "workers", 0, "concurrent runs per campaign (0 = GOMAXPROCS)")
	flag.BoolVar(&opts.Exec.Timing, "timing", false, "record wall_ms/peak_queue on every executed run (makes checkpoints machine-dependent)")
	flag.IntVar(&opts.Checkpoint.SyncEvery, "sync-every", 0, "fsync checkpoints every N records (0 = default, negative = only at completion)")
	var lf cli.LogFlags
	lf.Register(flag.CommandLine)
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		dir     = flag.String("dir", "campaignd-state", "state directory (specs + JSONL checkpoints)")
		pprofOn = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	log, err := lf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(2)
	}

	opts.Logger = log
	svc, err := serve.NewService(*dir, opts)
	if err != nil {
		log.Error("startup failed", "err", err)
		os.Exit(1)
	}
	// The campaign flag group is optional here: when given, the daemon
	// submits that campaign at boot (idempotent, so restarting with the
	// same flags reattaches rather than duplicating).
	if cf.Given() {
		camp, err := cf.Build()
		if err != nil {
			log.Error("bad campaign flags", "err", err)
			os.Exit(2)
		}
		c, created, err := svc.Submit(camp.File())
		if err != nil {
			log.Error("boot submission failed", "err", err)
			os.Exit(2)
		}
		verb := "resumed"
		if created {
			verb = "submitted"
		}
		log.Info("boot campaign "+verb, "campaign", c.ID(), "name", c.Spec().Name)
	}

	handler := serve.NewServer(svc)
	if *pprofOn {
		handler.EnablePprof()
		log.Info("pprof enabled", "path", "/debug/pprof/")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("listening", "addr", *addr, "dir", *dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		// Graceful drain: reject new submissions (503, surfaced by
		// /healthz as "draining"), stop accepting requests, then cancel
		// the campaigns and wait for in-flight runs so every checkpoint
		// is left a valid resumable prefix. A second signal skips the
		// wait and force-exits.
		log.Info("draining (signal again to force exit)")
		svc.StartDrain()
		stop()
		forced := make(chan os.Signal, 1)
		signal.Notify(forced, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-forced
			log.Warn("forced exit")
			os.Exit(1)
		}()
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shctx)
		svc.Close()
		log.Info("drain complete: checkpoints settled")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("server failed", "err", err)
			os.Exit(1)
		}
	}
}
