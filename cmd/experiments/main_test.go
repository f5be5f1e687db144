package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"untangle/internal/experiments"
	"untangle/internal/faultinject"
)

// TestMain lets this test binary double as the resident campaign service:
// the serve tests re-exec os.Executable() with -serve as the first
// argument, which in tests is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestParseMixes(t *testing.T) {
	ids, err := parseMixes("")
	if err != nil || len(ids) != 16 {
		t.Fatalf("default = %v, %v", ids, err)
	}
	ids, err = parseMixes("1, 4,16")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 4 || ids[2] != 16 {
		t.Errorf("ids = %v", ids)
	}
	if _, err := parseMixes("1,x"); err == nil {
		t.Error("bad id accepted")
	}
	if _, err := parseMixes("17"); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := parseMixes("0"); err == nil {
		t.Error("out-of-range id accepted")
	}
}

func TestValidateConfig(t *testing.T) {
	base := config{scale: 0.01}
	if err := base.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"zero scale", config{scale: 0}, "-scale"},
		{"negative scale", config{scale: -1}, "-scale"},
		{"scale above 1", config{scale: 1.5}, "-scale"},
		{"negative jobs", config{scale: 0.01, jobs: -2}, "-jobs"},
	} {
		err := tc.cfg.validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

// equivalenceConfig is the smallest campaign that exercises every unit kind:
// the sensitivity study, two mixes, the active-attacker reruns, and a
// telemetry stream.
func equivalenceConfig(dir string) config {
	return config{
		scale:    0.0002,
		ids:      []int{1, 2},
		sensIns:  20_000,
		jobs:     1, // deterministic unit order, so the kill point is exact
		active:   true,
		traced:   true,
		outPath:  filepath.Join(dir, "report.txt"),
		telePath: filepath.Join(dir, "trace.jsonl"),
	}
}

// campaign runs cfg to completion and returns the report and telemetry
// bytes it committed.
func runCampaignFiles(t *testing.T, ctx context.Context, cfg config) (report, trace []byte) {
	t.Helper()
	if err := run(ctx, cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(cfg.outPath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err = os.ReadFile(cfg.telePath)
	if err != nil {
		t.Fatal(err)
	}
	return report, trace
}

// The headline robustness guarantee: kill the campaign at unit k, resume
// from the checkpoint, and the final report and telemetry trace are
// byte-identical to a never-interrupted run's. Exercised for a kill inside
// the sensitivity study, a kill between mix units, and a kill under the
// in-process pool resumed through the campaign service (-dlq).
func TestCheckpointResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven small campaigns")
	}
	freshReport, freshTrace := runCampaignFiles(t, context.Background(), equivalenceConfig(t.TempDir()))

	t.Run("kill-in-sensitivity-study", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		inj := faultinject.CancelAt(40, cancel) // lands mid-study at this budget
		experiments.SetEngineChunkHook(inj.Fire)
		err := run(ctx, cfg, io.Discard)
		experiments.SetEngineChunkHook(nil)
		if err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("0/2 mixes")) {
			t.Fatalf("kill point missed the study; interrupted manifest:\n%s", partial)
		}

		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("resumed report differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("resumed telemetry differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	})

	t.Run("kill-in-mix-phase", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.unitHook = func(key string) {
			if strings.HasPrefix(key, "mix/") {
				cancel() // first completed mix "crashes" the campaign
			}
		}
		if err := run(ctx, cfg, io.Discard); err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("1/2 mixes")) {
			t.Fatalf("kill point missed the mix phase; interrupted manifest:\n%s", partial)
		}

		cfg.unitHook = nil
		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("resumed report differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("resumed telemetry differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	})

	// The journal is the only state a resume reads, so the executor may
	// change across the restart: units the in-process pool journaled are
	// skipped as resumed by the campaign service, which runs the rest.
	t.Run("kill-in-pool-resume-under-dlq", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg.unitHook = func(key string) {
			if strings.HasPrefix(key, "mix/") {
				cancel()
			}
		}
		if err := run(ctx, cfg, io.Discard); err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("1/2 mixes")) {
			t.Fatalf("kill point missed the mix phase; interrupted manifest:\n%s", partial)
		}

		cfg.unitHook = nil
		cfg.dlq = true
		gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
		if !bytes.Equal(gotReport, freshReport) {
			t.Errorf("report resumed under -dlq differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
		}
		if !bytes.Equal(gotTrace, freshTrace) {
			t.Errorf("telemetry resumed under -dlq differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
		}
	})
}

// The fused mix engine must be invisible at the campaign level: the -out
// and -telemetry files of a default campaign byte-equal those of a
// campaign on the per-scheme oracle path (cfg.oracleMixes), cold, through a populated and a warm front-end cache, and
// across a checkpointed kill that lands inside a mix front-end.
func TestMixFusionCampaignOutputsMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six small campaigns")
	}
	// sensIns 0 drops the sensitivity study: the campaign is mix units and
	// their active-attacker reruns, so every byte under test flows through
	// the mix path.
	oracleCfg := equivalenceConfig(t.TempDir())
	oracleCfg.sensIns = 0
	oracleCfg.oracleMixes = true
	wantReport, wantTrace := runCampaignFiles(t, context.Background(), oracleCfg)

	check := func(t *testing.T, report, trace []byte) {
		t.Helper()
		if !bytes.Equal(report, wantReport) {
			t.Errorf("report differs from oracle campaign (%d vs %d bytes)", len(report), len(wantReport))
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("telemetry differs from oracle campaign (%d vs %d bytes)", len(trace), len(wantTrace))
		}
	}

	t.Run("fused-cold", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		report, trace := runCampaignFiles(t, context.Background(), cfg)
		check(t, report, trace)
	})

	t.Run("fused-warm", func(t *testing.T) {
		cacheDir := t.TempDir()
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		cfg.feCacheDir = cacheDir
		report, trace := runCampaignFiles(t, context.Background(), cfg) // populates the cache
		check(t, report, trace)

		warm := equivalenceConfig(t.TempDir())
		warm.sensIns = 0
		warm.feCacheDir = cacheDir
		report, trace = runCampaignFiles(t, context.Background(), warm) // replays it
		check(t, report, trace)
	})

	t.Run("kill-mid-mix-and-resume", func(t *testing.T) {
		cfg := equivalenceConfig(t.TempDir())
		cfg.sensIns = 0
		cfg.feCacheDir = t.TempDir()
		cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// With no study, the first engine chunks belong to mix 1's fused
		// front-end and lanes: chunk 40 cancels while the mix is mid-flight.
		inj := faultinject.CancelAt(40, cancel)
		experiments.SetEngineChunkHook(inj.Fire)
		err := run(ctx, cfg, io.Discard)
		experiments.SetEngineChunkHook(nil)
		if err != nil {
			t.Fatalf("interrupted run did not exit cleanly: %v", err)
		}
		partial, err := os.ReadFile(cfg.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(partial, []byte("0/2 mixes")) {
			t.Fatalf("kill point missed the mix phase; interrupted manifest:\n%s", partial)
		}

		report, trace := runCampaignFiles(t, context.Background(), cfg)
		check(t, report, trace)
	})
}

// A failed unit must leave the -out and -telemetry destinations exactly as
// they were: the report of the previous successful campaign, not a torn or
// truncated file.
func TestFailedRunPreservesPreviousOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign")
	}
	cfg := equivalenceConfig(t.TempDir())
	cfg.sensIns = 0 // mix units only; keep it quick
	oldReport, oldTrace := runCampaignFiles(t, context.Background(), cfg)

	inj := faultinject.ErrorAt(1, ^uint64(0), nil) // every engine chunk fails
	experiments.SetEngineChunkHook(inj.Fire)
	cfg.sensIns = 20_000 // now the study runs — and fails persistently
	err := run(context.Background(), cfg, io.Discard)
	experiments.SetEngineChunkHook(nil)
	if err == nil {
		t.Fatal("persistently faulted run reported success")
	}
	gotReport, _ := os.ReadFile(cfg.outPath)
	gotTrace, _ := os.ReadFile(cfg.telePath)
	if !bytes.Equal(gotReport, oldReport) {
		t.Error("failed run disturbed the previous report")
	}
	if !bytes.Equal(gotTrace, oldTrace) {
		t.Error("failed run disturbed the previous telemetry trace")
	}
}
