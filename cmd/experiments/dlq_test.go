package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/faultinject"
)

// The dead-letter guarantee end to end: a campaign with one poisoned unit
// completes degraded — the poisoned unit in the journal's dead-letter
// section, every healthy unit reported — and after the fault clears, a
// -replay run re-drives exactly the dead unit and commits outputs
// byte-identical to a never-poisoned campaign's.
func TestDeadLetterCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small campaigns")
	}
	freshReport, freshTrace := runCampaignFiles(t, context.Background(), equivalenceConfig(t.TempDir()))

	cfg := equivalenceConfig(t.TempDir())
	cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")
	cfg.dlq = true

	// Poison mix/2: the keyed fault fires on every retry attempt, so the
	// unit exhausts its budget and dead-letters instead of failing the run.
	poison := errors.New("injected poison")
	inj := faultinject.KeyedError(mixKey(2), poison)
	experiments.SetUnitFaultHook(inj.Fire)
	err := run(context.Background(), cfg, io.Discard)
	experiments.SetUnitFaultHook(nil)
	if err != nil {
		t.Fatalf("poisoned campaign failed instead of completing degraded: %v", err)
	}
	if inj.Calls() != experiments.RetryAttempts {
		t.Errorf("fault fired %d times, want %d (one per retry attempt)", inj.Calls(), experiments.RetryAttempts)
	}

	degraded, err := os.ReadFile(cfg.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(degraded, []byte("1/2 mixes (1 dead-lettered).")) {
		t.Fatalf("degraded manifest missing the dead-letter count:\n%s", degraded)
	}
	// The healthy units' bytes match the fresh run: the reports agree up to
	// the point where mix/2's group would have appeared.
	cut := bytes.Index(freshReport, []byte("Mix 2"))
	if cut < 0 {
		t.Fatalf("fresh report has no Mix 2 group:\n%s", freshReport)
	}
	if !bytes.HasPrefix(degraded, freshReport[:cut]) {
		t.Errorf("degraded report's healthy prefix diverges from the fresh run's:\n%s", degraded)
	}
	if bytes.Contains(degraded, []byte("Mix 2")) {
		t.Error("degraded report contains the dead mix's group")
	}

	// The journal holds the dead letter with its attempt count and cause.
	j, err := checkpoint.Open(cfg.ckptPath, cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	dl, ok := j.Dead(mixKey(2))
	if !ok {
		t.Fatalf("mix/2 not dead-lettered; dead letters: %v", j.DeadLetters())
	}
	if dl.Attempts != experiments.RetryAttempts {
		t.Errorf("dead letter attempts = %d, want %d", dl.Attempts, experiments.RetryAttempts)
	}
	if !strings.Contains(dl.Error, poison.Error()) {
		t.Errorf("dead letter error %q does not name the cause %q", dl.Error, poison)
	}
	if !j.Done(mixKey(1)) {
		t.Error("healthy unit mix/1 missing from the journal")
	}
	j.Close()

	// Fault cleared: -replay re-drives the dead unit. The merged outputs
	// must be byte-identical to the never-poisoned campaign's.
	cfg.replay = true
	gotReport, gotTrace := runCampaignFiles(t, context.Background(), cfg)
	if !bytes.Equal(gotReport, freshReport) {
		t.Errorf("replayed report differs from fresh run (%d vs %d bytes)", len(gotReport), len(freshReport))
	}
	if !bytes.Equal(gotTrace, freshTrace) {
		t.Errorf("replayed telemetry differs from fresh run (%d vs %d bytes)", len(gotTrace), len(freshTrace))
	}

	// The successful replay superseded the dead letter.
	j, err = checkpoint.Open(cfg.ckptPath, cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := j.DeadLen(); n != 0 {
		t.Errorf("journal still holds %d dead letters after replay: %v", n, j.DeadLetters())
	}
}

// A panicking unit dead-letters with its stack instead of crashing the
// campaign; without -replay, a resubmission skips the known-poisoned unit
// rather than burning retries on it.
func TestDeadLetterPanickingUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small campaigns")
	}
	cfg := equivalenceConfig(t.TempDir())
	cfg.sensIns = 0 // mix units only: the panic target is a mix
	cfg.ckptPath = filepath.Join(filepath.Dir(cfg.outPath), "run.ckpt")
	cfg.dlq = true

	experiments.SetUnitFaultHook(func(key string) error {
		if key == mixKey(1) {
			panic(fmt.Sprintf("poisoned unit %s", key))
		}
		return nil
	})
	err := run(context.Background(), cfg, io.Discard)
	experiments.SetUnitFaultHook(nil)
	if err != nil {
		t.Fatalf("panicking campaign failed instead of completing degraded: %v", err)
	}
	j, err := checkpoint.Open(cfg.ckptPath, cfg.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	dl, ok := j.Dead(mixKey(1))
	if !ok {
		t.Fatalf("panicking mix/1 not dead-lettered; dead letters: %v", j.DeadLetters())
	}
	if !strings.Contains(dl.Error, "poisoned unit mix/1") {
		t.Errorf("dead letter error %q does not carry the panic value", dl.Error)
	}
	if dl.Stack == "" {
		t.Error("dead letter has no stack trace")
	}
	j.Close()

	// Resubmission without -replay: the dead key is skipped — zero unit
	// executions for mix/1 — and the campaign still completes degraded.
	var fired int
	experiments.SetUnitFaultHook(func(key string) error {
		if key == mixKey(1) {
			fired++
		}
		return nil
	})
	err = run(context.Background(), cfg, io.Discard)
	experiments.SetUnitFaultHook(nil)
	if err != nil {
		t.Fatalf("resubmitted campaign failed: %v", err)
	}
	if fired != 0 {
		t.Errorf("dead unit re-ran %d times without -replay", fired)
	}
	report, err := os.ReadFile(cfg.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(report, []byte("(1 dead-lettered).")) {
		t.Errorf("resubmitted manifest lost the dead-letter count:\n%s", report)
	}
}

func TestValidateDLQConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config
		want string
	}{
		{"dlq without checkpoint", config{scale: 0.01, dlq: true}, "-checkpoint"},
	} {
		err := tc.cfg.validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
	ok := config{scale: 0.01, dlq: true, replay: true, ckptPath: "x"}
	if err := ok.validate(); err != nil {
		t.Errorf("valid dlq config rejected: %v", err)
	}
}
