// Campaign units: a campaign is two phases of keyed units — the Figure 11
// sensitivity passes ("sens/<benchmark>"), then the mixes ("mix/<id>") —
// and each unit kind has one execution body, execSens or execMix. How a
// phase's keys execute is the only thing the execution modes change:
//
//   - in process (the default): the keys fan out onto the worker pool, and
//     a failed unit fails the campaign;
//   - through a campaign.Service (-dlq, -replay, -serve): the keys flow
//     through the service's bounded priority queue, and a unit that
//     exhausts its retries or panics is written to the checkpoint
//     journal's dead-letter section while the campaign completes degraded.
//     A later -replay run re-drives exactly the dead keys; once they
//     succeed, the outputs are byte-identical to a never-poisoned run's
//     (TestDeadLetterCampaignEquivalence).
//
// Either way a unit already in the journal is skipped as resumed, a fresh
// one is journaled as it completes, and the phase hands back every key's
// journal value in key order, which is what makes the report and telemetry
// bytes independent of the mode and of completion order.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/experiments"
	"untangle/internal/parallel"
)

// drainTimeout bounds an owned service's shutdown: in-flight units at
// smoke scale settle in seconds; a minute means a wedged unit surfaces as
// a drain error instead of a hang.
const drainTimeout = time.Minute

// execFunc runs one unit by key and returns its journal value and its
// observation outcome (experiments.UnitGenerated or UnitReplayed). Retries
// live inside it; an error that escapes is terminal for the unit.
type execFunc func(ctx context.Context, key string) (json.RawMessage, string, error)

// unitRunner executes a campaign's phases. svc is nil for in-process
// execution; with -dlq run builds a private service (owned, drained on
// close), and in serve mode the resident service is shared across
// campaigns, cfg.jobPrefix namespacing this campaign's job IDs on it.
type unitRunner struct {
	cfg     config
	journal *checkpoint.Journal
	svc     *campaign.Service
	owned   bool
}

func newUnitRunner(cfg config, journal *checkpoint.Journal) *unitRunner {
	r := &unitRunner{cfg: cfg, journal: journal}
	if cfg.dlq {
		r.svc = cfg.service
		if r.svc == nil {
			r.svc = campaign.New(campaign.Options{Workers: cfg.jobs, Logf: log.Printf})
			r.owned = true
		}
	}
	return r
}

// close drains an owned service; a shared one outlives this campaign.
func (r *unitRunner) close() {
	if !r.owned {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := r.svc.Drain(ctx); err != nil {
		log.Printf("campaign service: %v", err)
	}
}

// sensitivityStudy runs the Figure 11 units and returns the study in
// canonical benchmark order. A unit that did not complete (interrupted or
// dead-lettered) leaves a zero row, so the figure renders partial rather
// than failing; the partial study is returned with the phase's error.
func (r *unitRunner) sensitivityStudy(ctx context.Context) ([]experiments.SensitivityResult, error) {
	names := experiments.SensitivityOrder()
	keys := make([]string, len(names))
	for i, name := range names {
		keys[i] = experiments.SensitivityKey(name)
	}
	vals, runErr := r.runPhase(ctx, "sens", "sensitivity", keys, r.execSens)
	study := make([]experiments.SensitivityResult, len(names))
	for i, raw := range vals {
		if raw == nil {
			continue
		}
		var err error
		if study[i], err = experiments.DecodeSensitivityUnit(raw); err != nil {
			return study, fmt.Errorf("checkpoint %s: %w", keys[i], err)
		}
	}
	return study, runErr
}

// runMixes runs the mix units and returns each mix's outcome by index —
// nil where the unit did not complete, which the report skips.
func (r *unitRunner) runMixes(ctx context.Context, study []experiments.SensitivityResult) ([]*savedMix, error) {
	keys := make([]string, len(r.cfg.ids))
	for i, id := range r.cfg.ids {
		keys[i] = mixKey(id)
	}
	exec := func(ctx context.Context, key string) (json.RawMessage, string, error) {
		return r.execMix(ctx, key, study)
	}
	vals, runErr := r.runPhase(ctx, "mix", "mix", keys, exec)
	outcomes := make([]*savedMix, len(keys))
	for i, raw := range vals {
		if raw == nil {
			continue
		}
		outcomes[i] = new(savedMix)
		if err := json.Unmarshal(raw, outcomes[i]); err != nil {
			return outcomes, fmt.Errorf("checkpoint %s: %w", keys[i], err)
		}
	}
	return outcomes, runErr
}

// execSens runs one sensitivity unit.
func (r *unitRunner) execSens(ctx context.Context, key string) (json.RawMessage, string, error) {
	return experiments.RunSensitivityUnit(ctx, strings.TrimPrefix(key, "sens/"), r.cfg.sensIns)
}

// execMix runs one mix unit. A lone mix cannot fill the pool, so it runs
// its schemes on the campaign's -jobs workers instead.
func (r *unitRunner) execMix(ctx context.Context, key string, study []experiments.SensitivityResult) (json.RawMessage, string, error) {
	id, err := strconv.Atoi(strings.TrimPrefix(key, "mix/"))
	if err != nil {
		return nil, experiments.UnitGenerated, fmt.Errorf("bad mix key %q", key)
	}
	innerJobs := 1
	if len(r.cfg.ids) == 1 {
		innerJobs = r.cfg.jobs
	}
	sv, err := runMixUnit(ctx, r.cfg, study, id, innerJobs)
	if err != nil {
		return nil, experiments.UnitGenerated, err
	}
	if r.cfg.active && !sv.HaveActive {
		// Cancellation landed between the main run and the active rerun;
		// journaling the truncated unit would poison every future resume.
		return nil, experiments.UnitGenerated, fmt.Errorf("mix %d interrupted before the active-attacker rerun", id)
	}
	raw, err := json.Marshal(sv)
	return raw, experiments.UnitGenerated, err
}

// runPhase executes keys and returns their journal values in key order,
// nil where a unit did not complete. A canceled context abandons unstarted
// units; the values of every completed unit are still returned. On a
// service the phase runs as one job, jobID naming it.
func (r *unitRunner) runPhase(ctx context.Context, jobID, phase string, keys []string, exec execFunc) ([]json.RawMessage, error) {
	if r.svc != nil {
		runErr := r.runJob(ctx, jobID, phase, keys, exec)
		vals := make([]json.RawMessage, len(keys))
		for i, key := range keys {
			if _, err := r.journal.Lookup(key, &vals[i]); err != nil {
				return vals, fmt.Errorf("checkpoint %s: %w", key, err)
			}
		}
		return vals, runErr
	}
	return parallel.Map(ctx, len(keys), r.cfg.jobs, func(ctx context.Context, i int) (raw json.RawMessage, err error) {
		key := keys[i]
		outcome := experiments.UnitGenerated
		if unitDone := experiments.ObserveUnit(obsUnitName(key)); unitDone != nil {
			defer func() { unitDone(outcome, err) }()
		}
		if r.journal != nil {
			if ok, err := r.journal.Lookup(key, &raw); err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", key, err)
			} else if ok {
				outcome = experiments.UnitResumed
				return raw, nil
			}
		}
		if raw, outcome, err = exec(ctx, key); err != nil {
			return nil, err
		}
		if r.journal != nil {
			if err := r.journal.Record(key, raw); err != nil {
				return nil, fmt.Errorf("checkpoint %s: %w", key, err)
			}
		}
		if r.cfg.unitHook != nil {
			r.cfg.unitHook(key)
		}
		return raw, nil
	})
}

// runJob submits one single-phase job to the service and waits for it,
// mapping the service's terminal states onto the campaign's error
// conventions: nil for completed (even degraded), campaign.ErrInterrupted
// for a drain, the context's error for a cancellation.
func (r *unitRunner) runJob(ctx context.Context, jobID, phase string, keys []string, exec execFunc) error {
	job, err := r.svc.Submit(campaign.JobSpec{
		ID:       r.cfg.jobPrefix + jobID,
		Priority: r.cfg.priority,
		Phases:   []campaign.PhaseSpec{{Name: phase, Keys: keys}},
		Exec: func(ctx context.Context, key string) (json.RawMessage, error) {
			raw, _, err := exec(ctx, key)
			return raw, err
		},
		Journal:    r.journal,
		ReplayDead: r.cfg.replay,
		Observe:    r.observe,
		PostRecord: r.cfg.unitHook,
	})
	if err != nil {
		if errors.Is(err, campaign.ErrDraining) {
			// The service is shutting down under us; the campaign is
			// interrupted, resumable from its journal.
			return campaign.ErrInterrupted
		}
		return err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		job.Cancel()
		<-job.Done()
		return ctx.Err()
	}
	switch job.Status().State {
	case campaign.StateFailed:
		return job.Err()
	case campaign.StateCanceled:
		return context.Canceled
	case campaign.StateInterrupted:
		return campaign.ErrInterrupted
	}
	return nil
}

// observe opens a service unit's observation span: through the serve-mode
// hook when one is set, else through the process-wide observer startObs
// installed — the same names the in-process pool reports.
func (r *unitRunner) observe(phase, key string) func(outcome string, err error) {
	if r.cfg.observe != nil {
		return r.cfg.observe(phase, key)
	}
	return experiments.ObserveUnit(obsUnitName(key))
}

// obsUnitName maps a journal key to the (phase, unit) names its
// observation span reports.
func obsUnitName(key string) (phase, unit string) {
	if name, ok := strings.CutPrefix(key, "sens/"); ok {
		return "sensitivity", name
	}
	return "mix", key
}
