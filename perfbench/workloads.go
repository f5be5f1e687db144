package main

// The four workloads. Each exercises a different set of the simulator's
// layers (see BENCHMARK.json and NOTES.md for the per-layer predictions):
//
//	fig11-cold  Figure 11 study, no front-end cache: generator, private L1,
//	            nine LLC lanes and the cycle fold do the work.
//	fig11-warm  the same study replayed from a cache set-up populated:
//	            trace decode, lane sidecars and the cycle fold.
//	mixes-warm  Mixes 1 and 2 under all four schemes, replayed from rich mix
//	            entries: UMON shadow probes, the partition controller and
//	            the leakage accountants.
//	campaign    cmd/experiments as a child process: Figure 11, one mix,
//	            journal and report writes, process start and rate tables.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"untangle/internal/experiments"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

type workloadDef struct {
	name string
	// inputs describes what the seed drives, for the run's header line.
	inputs func(b *bench) string
	// setup performs one repetition of the workload's set-up into dir. It
	// returns the seconds of one-time work that an earlier repetition did
	// and this one reused instead of repeating.
	setup func(b *bench, dir string) (reused float64, err error)
	// timed performs and measures one timed run.
	timed func(b *bench) (sample, error)
	// digestKey is where the run's digests live in the digest file.
	digestKey func(b *bench) string
}

var workloads = map[string]*workloadDef{
	"fig11-cold": {
		name:      "fig11-cold",
		inputs:    func(*bench) string { return fig11Inputs() + ", no front-end cache; the seed changes no input" },
		setup:     fig11ColdSetup,
		timed:     fig11Timed,
		digestKey: func(*bench) string { return "" },
	},
	"fig11-warm": {
		name: "fig11-warm",
		inputs: func(*bench) string {
			return fig11Inputs() + ", replayed from a front-end cache; the seed changes no input"
		},
		setup:     fig11WarmSetup,
		timed:     fig11Timed,
		digestKey: func(*bench) string { return "" },
	},
	"mixes-warm": {
		name: "mixes-warm",
		inputs: func(b *bench) string {
			in := mixesWarmInputs(b.cfg.seed)
			return fmt.Sprintf("Mixes %v at scale %g, four schemes, replayed from rich mix entries; seed drives Secret=%#x SimSeed=%d",
				mixesWarmIDs, mixScale, in.secret, in.simSeed)
		},
		setup:     mixesWarmSetup,
		timed:     mixesWarmTimed,
		digestKey: func(b *bench) string { return strconv.FormatInt(b.cfg.seed, 10) },
	},
	"campaign": {
		name: "campaign",
		inputs: func(b *bench) string {
			return fmt.Sprintf("cmd/experiments -checkpoint: Figure 11 (%d instructions) + Mix %d (seed selects it from %v) at scale %g, -skip-active",
				fig11Instructions, campaignMix(b.cfg.seed), campaignMixes, mixScale)
		},
		setup:     campaignSetup,
		timed:     campaignTimed,
		digestKey: func(b *bench) string { return fmt.Sprintf("mix/%d", campaignMix(b.cfg.seed)) },
	},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fig11Inputs() string {
	return fmt.Sprintf("Figure 11 study, 36 benchmarks x 9 LLC sizes, %d instructions per pass", fig11Instructions)
}

// fig11SimInstructions counts every simulated core of one study: each of
// the 36 benchmark streams (a warm-up and a measured half) runs on all
// nine LLC-size lanes.
func fig11SimInstructions() float64 {
	return float64(len(workload.SPECBenchmarks)) * float64(len(sim.DefaultConfig(partition.DefaultScheme(partition.Static)).Sizes)) * 2 * fig11Instructions
}

// study runs the Figure 11 study and checks it.
func (b *bench) study() error {
	study, err := experiments.SensitivityStudy(fig11Instructions, b.jobs)
	if err != nil {
		b.check.fail("fig11", err)
		return err
	}
	b.check.merge(checkStudy(study, b.want.Fig11))
	return nil
}

// fig11ColdSetup is a warm-up pass: it lets the engine pools and the heap
// reach the size the timed runs reuse. The cold study has no other set-up,
// so this set-up repeats the timed work.
func fig11ColdSetup(b *bench, _ string) (float64, error) { return 0, b.study() }

// fig11WarmSetup populates a front-end cache (.fetrace entries and
// .felanes sidecars) with every benchmark's stream; the timed runs replay
// the last one populated.
func fig11WarmSetup(b *bench, dir string) (float64, error) {
	st, err := tracecache.NewStore(dir, false)
	if err != nil {
		return 0, err
	}
	if _, err := experiments.WarmFrontEndCache(context.Background(), st, nil, fig11Instructions, b.jobs); err != nil {
		return 0, err
	}
	b.state = st
	return 0, nil
}

func fig11Timed(b *bench) (sample, error) {
	if st, ok := b.state.(*tracecache.Store); ok {
		experiments.SetFrontEndCache(st)
		defer experiments.SetFrontEndCache(nil)
	}
	return measureInProcess(func() (float64, error) {
		return fig11SimInstructions(), b.study()
	})
}

// mixesWarmIDs are Mixes 1 and 2 of the Table 6 / Figure 10 set (Mixes
// 1-4). At mixScale a warm run of all four takes about 11 s and their
// set-up about 20 s on a 2-core machine, which the benchmark's run budget
// does not hold; two mixes, one per worker, keep every layer of the set
// under load (NOTES.md).
var mixesWarmIDs = []int{1, 2}

type mixInputs struct{ secret, simSeed uint64 }

// mixesWarmInputs derives the crypto secret and the scheme-delay seed from
// the benchmark seed.
func mixesWarmInputs(seed int64) mixInputs {
	r := rand.New(rand.NewSource(seed))
	return mixInputs{secret: r.Uint64(), simSeed: r.Uint64()}
}

// mixesState is what mixes-warm's set-up leaves for the timed runs.
type mixesState struct {
	store     *tracecache.Store
	rateTable float64 // seconds the program's rate-table build took
}

// mixesWarmSetup populates rich mix entries with WarmMixFrontEnds. The
// first repetition also builds the covert rate tables the Untangle
// accountant needs, through the program's own call. The program keeps them
// for the life of the process, so later repetitions do not build them
// again: they report that first build time as reused.
func mixesWarmSetup(b *bench, dir string) (reused float64, err error) {
	st0, _ := b.state.(*mixesState)
	if st0 == nil {
		t0 := time.Now()
		if err := sim.Scaled(partition.DefaultScheme(partition.Untangle), mixScale).WarmRateTables(); err != nil {
			return 0, err
		}
		st0 = &mixesState{rateTable: time.Since(t0).Seconds()}
	} else {
		reused = st0.rateTable
	}
	st, err := tracecache.NewStore(dir, false)
	if err != nil {
		return 0, err
	}
	in := mixesWarmInputs(b.cfg.seed)
	if _, err := experiments.WarmMixFrontEnds(context.Background(), st, mixesWarmIDs, mixScale, in.secret, b.jobs); err != nil {
		return 0, err
	}
	st0.store = st
	b.state = st0
	return reused, nil
}

// mixSimInstructions counts every simulated core of one mix under all four
// schemes: each domain's stream of the scaled 550M-instruction total.
func mixSimInstructions(mix workload.Mix, scale float64) float64 {
	total := uint64(550_000_000 * scale)
	if total < 1000 {
		total = 1000
	}
	return float64(len(mixKinds)) * float64(len(mix.Pairs)) * float64(total)
}

// runMixes runs the mixes on the worker pool the way cmd/experiments does
// (one mix per worker, its schemes sequential), checking each one.
// observe, when non-nil, brackets each mix unit.
func (b *bench) runMixes(ids []int, in mixInputs, observe func(id int) func()) ([]*experiments.MixResult, float64, error) {
	var instr float64
	mixes := make([]workload.Mix, len(ids))
	for i, id := range ids {
		m, err := workload.MixByID(id)
		if err != nil {
			return nil, 0, err
		}
		mixes[i] = m
		instr += mixSimInstructions(m, mixScale)
	}
	results, err := parallel.Map(context.Background(), len(mixes), b.jobs, func(_ context.Context, i int) (*experiments.MixResult, error) {
		if observe != nil {
			defer observe(mixes[i].ID)()
		}
		return experiments.RunMix(mixes[i], experiments.Options{Scale: mixScale, Secret: in.secret, SimSeed: in.simSeed, Jobs: 1})
	})
	if err != nil {
		b.check.fail("mixes", err)
		return nil, 0, err
	}
	want := b.want.MixesWarm[strconv.FormatInt(b.cfg.seed, 10)]
	for _, res := range results {
		key := fmt.Sprintf("mix/%d", res.Mix.ID)
		got, err := mixDigest(res)
		if err != nil {
			b.check.fail(key, err)
			continue
		}
		b.check.unit(key, got, want[key], checkMixShape(res))
	}
	return results, instr, nil
}

func mixesWarmTimed(b *bench) (sample, error) {
	st := b.state.(*mixesState)
	experiments.SetFrontEndCache(st.store)
	defer experiments.SetFrontEndCache(nil)
	in := mixesWarmInputs(b.cfg.seed)
	return measureInProcess(func() (float64, error) {
		_, instr, err := b.runMixes(mixesWarmIDs, in, nil)
		return instr, err
	})
}

// campaignMixes are the mixes the campaign seed chooses from: their cold
// costs at mixScale lie close to each other (NOTES.md), so wall_s across
// seeds measures the program rather than which mix was drawn.
var campaignMixes = []int{1, 5, 15}

func campaignMix(seed int64) int {
	i := seed % int64(len(campaignMixes))
	if i < 0 {
		i += int64(len(campaignMixes))
	}
	return campaignMixes[i]
}

// campaignArgs is the user's command line: a fresh journal, no front-end
// cache, the report written atomically.
func (b *bench) campaignArgs(dir string, extra ...string) []string {
	args := []string{
		"-scale", strconv.FormatFloat(mixScale, 'g', -1, 64),
		"-mixes", strconv.Itoa(campaignMix(b.cfg.seed)),
		"-sensitivity-instructions", strconv.Itoa(fig11Instructions),
		"-skip-active",
		"-checkpoint", filepath.Join(dir, "run.ckpt"),
		"-out", filepath.Join(dir, "report.txt"),
		"-jobs", strconv.Itoa(b.jobs),
		"-quiet",
	}
	return append(args, extra...)
}

// execCampaign runs the experiments binary once in a fresh directory and
// measures it from outside. env and extra add environment variables and
// flags; the child's run directory and standard error are returned with
// the sample.
func (b *bench) execCampaign(env []string, extra ...string) (sample, string, string, error) {
	dir, err := b.runDir("campaign")
	if err != nil {
		return sample{}, "", "", err
	}
	cmd := exec.Command(b.cfg.experimentsBin, b.campaignArgs(dir, extra...)...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		b.check.fail("campaign", err)
		return sample{}, "", "", fmt.Errorf("campaign: %v\n%s", err, stderr.String())
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, "", "", fmt.Errorf("campaign: no resource usage for the child")
	}
	mix, err := workload.MixByID(campaignMix(b.cfg.seed))
	if err != nil {
		return sample{}, "", "", err
	}
	return sample{
		wall:     wall,
		cpu:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMB:    float64(ru.Maxrss) / 1024,
		simInstr: fig11SimInstructions() + mixSimInstructions(mix, mixScale),
	}, dir, stderr.String(), nil
}

// runCampaign is execCampaign plus the check of the run's journal and
// report.
func (b *bench) runCampaign(env []string, extra ...string) (sample, string, string, error) {
	s, dir, stderr, err := b.execCampaign(env, extra...)
	if err != nil {
		return s, dir, stderr, err
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.txt"))
	if err != nil {
		b.check.fail("report", err)
		return sample{}, "", "", err
	}
	b.check.merge(checkCampaign(filepath.Join(dir, "run.ckpt"), report, campaignMix(b.cfg.seed), b.want))
	return s, dir, stderr, nil
}

// campaignSetup is one untimed campaign over the mix alone. The program
// has no set-up of its own that a run could skip: every start rebuilds its
// rate tables inside the timed run, and the command line has no way to
// build only them. So this set-up is a warm-up that repeats part of the
// timed work: process start, the rate tables, the mix, and the journal and
// report writes. It warms the binary, the file system and the page cache.
func campaignSetup(b *bench, _ string) (float64, error) {
	_, dir, _, err := b.execCampaign(nil, "-sensitivity-instructions", "0")
	if err == nil {
		err = os.RemoveAll(dir)
	}
	return 0, err
}

func campaignTimed(b *bench) (sample, error) {
	s, dir, _, err := b.runCampaign(nil)
	if err == nil {
		err = os.RemoveAll(dir)
	}
	return s, err
}
