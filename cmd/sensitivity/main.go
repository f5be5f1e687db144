// Command sensitivity runs the Figure 11 LLC-sensitivity study: every
// SPEC17-like benchmark simulated with each of the 9 supported partition
// sizes, reporting IPC normalized to the 8MB maximum and the resulting
// adequate LLC size and sensitivity classification.
//
// Each benchmark is one multi-lane engine pass — the op stream and the
// private L1 are simulated once and all 9 partition sizes ride on that
// shared front-end — and the 36 passes fan out onto the experiment engine's
// worker pool; -jobs bounds the pool (0 = GOMAXPROCS, 1 = sequential).
// Results are identical for every -jobs value. SIGINT cancels the study:
// in-flight passes stop at their next front-end chunk.
//
// A full-fidelity study can journal its progress: -checkpoint records each
// completed benchmark pass to a crash-safe JSONL file, and a restarted
// study with the same flags skips the journaled passes and reproduces the
// identical output (see docs/ROBUSTNESS.md).
//
// Usage:
//
//	sensitivity                       # all 36 benchmarks, all cores
//	sensitivity -jobs 1               # sequential (legacy) execution
//	sensitivity -bench mcf_0          # one benchmark
//	sensitivity -instructions 3000000 # higher fidelity
//	sensitivity -classify-only        # adequate sizes only
//	sensitivity -checkpoint study.ckpt # journal passes; resume on restart
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/obs"
	"untangle/internal/report"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sensitivity: ")
	var (
		bench        = flag.String("bench", "", "run a single benchmark (default: all 36)")
		instructions = flag.Uint64("instructions", 1_500_000, "measured instructions per run (an equal warmup precedes)")
		jobs         = flag.Int("jobs", 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		classifyOnly = flag.Bool("classify-only", false, "print adequate sizes only instead of the full curve")
		ckpt         = flag.String("checkpoint", "", "journal completed benchmark passes to this file and resume from it on restart")
		feCache      = flag.String("fe-cache", "", "persist/replay front-end event streams in this directory")
		feRebuild    = flag.Bool("fe-cache-rebuild", false, "regenerate corrupt or key-mismatched -fe-cache entries instead of failing")
		httpAddr     = flag.String("http", "", "serve /metrics, /progress, /healthz and pprof on this address (e.g. :8080)")
		quiet        = flag.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	flag.Parse()
	if *jobs < 0 {
		log.Fatalf("-jobs must be >= 0 (0 = all cores), got %d", *jobs)
	}
	if *feRebuild && *feCache == "" {
		log.Fatal("-fe-cache-rebuild requires -fe-cache")
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var journal *checkpoint.Journal
	if *ckpt != "" {
		if *bench != "" {
			log.Fatal("-checkpoint journals the full study; it cannot be combined with -bench")
		}
		var err error
		journal, err = checkpoint.Open(*ckpt, checkpoint.Fingerprint{
			Instructions: *instructions,
			Units:        "sensitivity",
			ParamsTag:    experiments.ParamsFingerprint(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		if n := journal.Resumed(); n > 0 {
			log.Printf("resuming from %s: %d benchmark passes already complete", *ckpt, n)
		}
	}

	// Front-end trace cache: warm entries replay the post-L1 event stream
	// instead of re-running the generator and L1 (bitwise-identical output;
	// see EXPERIMENTS.md "Front-end trace cache").
	var feStore *tracecache.Store
	if *feCache != "" {
		st, err := tracecache.NewStore(*feCache, *feRebuild)
		if err != nil {
			log.Fatal(err)
		}
		feStore = st
		experiments.SetFrontEndCache(feStore)
		defer experiments.SetFrontEndCache(nil)
		defer func() {
			c := feStore.Counters()
			log.Printf("fe-cache: %d hits, %d misses, %d rebuilds, %d outcome hits, %d outcome misses, %d bytes read, %d bytes written",
				c.Hits, c.Misses, c.Rebuilds, c.OutcomeHits, c.OutcomeMisses, c.BytesRead, c.BytesWritten)
		}()
	}

	// Operational observability: progress/ETA and metrics for the full
	// study. Wall-clock only — the printed figure is unchanged by any of it.
	if *bench == "" && (*httpAddr != "" || journal != nil || (!*quiet && obs.IsTTY(os.Stderr))) {
		progress := obs.NewProgress()
		var hb *obs.Heartbeat
		if journal != nil {
			var err error
			if hb, err = obs.OpenHeartbeat(obs.HeartbeatPath(journal)); err != nil {
				log.Printf("heartbeat: %v (continuing without)", err)
			} else {
				defer hb.Close()
				progress.SetPrior(hb.Prior())
			}
		}
		reg := telemetry.NewRegistry()
		feStore.RegisterMetrics(reg) // nil-safe: no-op without -fe-cache
		campaign := obs.NewCampaign("sensitivity", nil, progress, reg)
		campaign.Phase("sensitivity", len(workload.SPECBenchmarks))
		experiments.SetUnitObserver(campaign.Unit)
		defer func() {
			experiments.SetUnitObserver(nil)
			campaign.End(nil)
		}()
		if *httpAddr != "" {
			srv, err := obs.StartServer(*httpAddr, progress,
				obs.NamedRegistry{Namespace: "untangle", Registry: reg})
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Shutdown()
			log.Printf("observability: http://%s/{metrics,progress,healthz,debug/pprof}", srv.Addr())
		}
		var line io.Writer
		if !*quiet && obs.IsTTY(os.Stderr) {
			line = os.Stderr
		}
		if r := obs.StartReporter(progress, hb, line, time.Second); r != nil {
			defer r.Stop()
		}
	}

	var study []experiments.SensitivityResult
	var err error
	switch {
	case *bench != "" && *classifyOnly:
		var r experiments.SensitivityResult
		r, err = experiments.Classify(*bench, *instructions)
		study = []experiments.SensitivityResult{r}
	case *bench != "":
		var r experiments.SensitivityResult
		r, err = experiments.Sensitivity(*bench, *instructions)
		study = []experiments.SensitivityResult{r}
	default:
		study, err = experiments.SensitivityStudyCheckpointed(ctx, *instructions, *jobs, journal)
	}
	if err != nil {
		if ctx.Err() != nil {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
	if *classifyOnly {
		for _, r := range study {
			mark := " "
			if r.Sensitive {
				mark = "*"
			}
			fmt.Printf("%s %-14s adequate %7.0f kB\n", mark, r.Name, float64(r.Adequate)/1024)
		}
		return
	}
	fmt.Print(report.Figure11(study))
}
