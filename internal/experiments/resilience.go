// The evaluation's resilience layer: configuration fingerprinting for the
// checkpoint journal, bounded retry of transient engine failures, and the
// checkpointed variant of the sensitivity study. A paper-fidelity campaign
// is hours of compute; this file is what lets it survive a fault in one
// point (retry), a crash of the process (checkpoint/resume), and a silent
// configuration drift between the crashing and the resuming binary
// (fingerprint mismatch fails loudly).
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"untangle/internal/checkpoint"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// Retry policy for one unit of campaign work. Three attempts with a short
// exponential backoff outlast any transient fault worth retrying; anything
// that fails three deterministic re-runs is a real error. Simulations are
// pure functions of their configuration, so a retried unit is bit-identical
// to a first-attempt success (TestTransientFaultRetriedBitIdentical).
const (
	RetryAttempts = 3
	RetryBackoff  = 50 * time.Millisecond
)

// ParamsFingerprint hashes the parameter tables compiled into this binary —
// the SPEC benchmark set, the 16 mixes, and the four schemes' defaults —
// into a short tag. It plays the role of a git describe in the checkpoint
// fingerprint: a journal written by a binary with different tables must not
// be resumed, because its journaled units would not match what this binary
// computes.
func ParamsFingerprint() string {
	h := fnv.New64a()
	for _, p := range workload.SPECBenchmarks {
		fmt.Fprintf(h, "%+v\n", p)
	}
	for _, m := range workload.Mixes {
		fmt.Fprintf(h, "%+v\n", m)
	}
	for _, k := range []partition.Kind{partition.Static, partition.TimeBased, partition.Untangle, partition.Shared} {
		fmt.Fprintf(h, "%+v\n", partition.DefaultScheme(k))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SensitivityKey is the checkpoint journal key of one benchmark's pass.
func SensitivityKey(name string) string { return "sens/" + name }

// sensUnit is the journal encoding of a SensitivityResult. The IPC curve
// goes through checkpoint.F64 so the round trip is bit-exact and tolerates
// the NaN points a small instruction budget produces (encoding/json rejects
// NaN; a journal must record whatever the engine computed).
type sensUnit struct {
	Name      string           `json:"name"`
	Sizes     []int64          `json:"sizes"`
	NormIPC   []checkpoint.F64 `json:"norm_ipc"`
	Adequate  int64            `json:"adequate"`
	Sensitive bool             `json:"sensitive"`
}

func toSensUnit(r SensitivityResult) sensUnit {
	return sensUnit{
		Name:      r.Name,
		Sizes:     r.Sizes,
		NormIPC:   checkpoint.F64s(r.NormIPC),
		Adequate:  r.Adequate,
		Sensitive: r.Sensitive,
	}
}

func (u sensUnit) result() SensitivityResult {
	return SensitivityResult{
		Name:      u.Name,
		Sizes:     u.Sizes,
		NormIPC:   checkpoint.Floats(u.NormIPC),
		Adequate:  u.Adequate,
		Sensitive: u.Sensitive,
	}
}

// SensitivityStudyCheckpointed is the resilient Figure 11 study: each
// benchmark pass is retried on transient failure, journaled on completion,
// and skipped (its journaled curve replayed) when the journal already holds
// it. j may be nil, which degrades to SensitivityStudyContext plus retry.
// The journaled values round-trip bit-exactly (the IPC curve is stored as
// IEEE-754 bit patterns, see checkpoint.F64), so a resumed study is
// identical to an uninterrupted one — the property the cmd/experiments
// equivalence test pins down at the report-byte level.
func SensitivityStudyCheckpointed(ctx context.Context, instructions uint64, jobs int, j *checkpoint.Journal) ([]SensitivityResult, error) {
	params := sortedSPECParams()
	store := FrontEndCache()
	return parallel.Map(ctx, len(params), jobs,
		func(ctx context.Context, i int) (r SensitivityResult, err error) {
			key := SensitivityKey(params[i].Name)
			outcome := UnitGenerated
			if unitDone := ObserveUnit("sensitivity", params[i].Name); unitDone != nil {
				defer func() { unitDone(outcome, err) }()
			}
			if j != nil {
				var u sensUnit
				if ok, err := j.Lookup(key, &u); err != nil {
					return SensitivityResult{}, fmt.Errorf("checkpoint %s: %w", key, err)
				} else if ok {
					outcome = UnitResumed
					return u.result(), nil
				}
			}
			if r, outcome, err = sensitivityUnit(ctx, store, params[i], instructions); err != nil {
				return SensitivityResult{}, err
			}
			if j != nil {
				if err := j.Record(key, toSensUnit(r)); err != nil {
					return SensitivityResult{}, fmt.Errorf("checkpoint %s: %w", key, err)
				}
			}
			return r, nil
		})
}

// sensitivityUnit is the one execution body of a sensitivity unit: the
// benchmark's multi-lane pass on a pooled engine, retried on transient
// failure behind the unit fault seam, each attempt observed as a
// "sensitivity/pass" sub-span. The outcome is UnitReplayed when the last
// attempt replayed its front end from store, else UnitGenerated.
func sensitivityUnit(ctx context.Context, store *tracecache.Store, p workload.Params, instructions uint64) (SensitivityResult, string, error) {
	key := SensitivityKey(p.Name)
	var (
		sizes   []int64
		ipcs    []float64
		outcome string
	)
	err := parallel.RetryUnit(ctx, key, RetryAttempts, RetryBackoff, func(ctx context.Context, attempt int) error {
		if ferr := FireUnitFault(key); ferr != nil {
			return ferr
		}
		passDone := ObserveUnit("sensitivity/pass", fmt.Sprintf("%s#%d", p.Name, attempt))
		e := enginePool.Get().(*laneEngine)
		defer enginePool.Put(e)
		sizes = e.sizes
		var (
			replayed bool
			err      error
		)
		ipcs, replayed, err = e.run(ctx, store, p, instructions)
		outcome = UnitGenerated
		if replayed {
			outcome = UnitReplayed
		}
		if passDone != nil {
			passDone(outcome, err)
		}
		return err
	})
	if err != nil {
		return SensitivityResult{}, UnitGenerated, err
	}
	return assembleSensitivity(p.Name, sizes, ipcs), outcome, nil
}

// SensitivityOrder returns the benchmark names of the Figure 11 study in
// canonical (sorted) execution order — the order the study fans out and
// the order a campaign enumerates its sensitivity units.
func SensitivityOrder() []string {
	params := sortedSPECParams()
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return names
}

// RunSensitivityUnit executes one benchmark's sensitivity unit by name and
// returns its journal encoding — the bytes SensitivityStudyCheckpointed
// records for the same unit — and its outcome (UnitGenerated or
// UnitReplayed). Campaigns that run units by key call it.
func RunSensitivityUnit(ctx context.Context, name string, instructions uint64) (json.RawMessage, string, error) {
	p, err := workload.SPECByName(name)
	if err != nil {
		return nil, UnitGenerated, err
	}
	r, outcome, err := sensitivityUnit(ctx, FrontEndCache(), p, instructions)
	if err != nil {
		return nil, outcome, err
	}
	raw, err := json.Marshal(toSensUnit(r))
	return raw, outcome, err
}

// DecodeSensitivityUnit reverses the journal encoding of one benchmark's
// unit.
func DecodeSensitivityUnit(raw json.RawMessage) (SensitivityResult, error) {
	var u sensUnit
	if err := json.Unmarshal(raw, &u); err != nil {
		return SensitivityResult{}, fmt.Errorf("experiments: decode sensitivity unit: %w", err)
	}
	return u.result(), nil
}
