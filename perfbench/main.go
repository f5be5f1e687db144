// Command perfbench is the repository's benchmark. One invocation runs one
// named workload as a closed loop: a single process with at most two
// workers starts each timed run when the previous one has finished, for
// -seconds seconds and at least minRuns runs, after the workload's set-up
// has run setupReps times.
// It checks the simulated outputs of every run against committed digests
// (check.go), prints every metric by name with its unit, and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}.
//
// With -trace 0 the metrics are the end-to-end host-side numbers of the
// timed runs, each the median over the runs of this invocation:
//
//	wall_s      host wall seconds of one run
//	sim_mips    simulated instructions (every simulated core) per host second, millions
//	cpu_s       user plus system CPU seconds of one run
//	peak_rss_mb peak resident memory of one run (the high-water mark is reset before each run)
//	setup_s     the workload's set-up, median of setupReps repetitions
//
// unit_fail_frac, the share of units that errored or failed the output
// check, is printed with them and carried by the JSON's attempted and
// failed counts.
//
// With -trace 1 the metrics are per-layer numbers: see trace.go.
//
// Run it through run.sh, which builds this package and cmd/experiments
// from the checkout and keeps every build and run artifact under
// .bench_build:
//
//	bash perfbench/run.sh --workload fig11-cold --seed 1 --seconds 6 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Input sizes. The Figure 11 budget is the bench suite's floor (the
// smallest at which the classification matches the paper); the mix scale
// is the smallest the repository's own mix benchmarks run. From it up, no
// floor raises the crypto phase length or the scheme's Interval, Cooldown
// and DelayWidth, so crypto:SPEC stays 1:10 as in the paper. (The
// partition-size sampling period is floored to 1 us here, as at every
// scale below 0.01.)
const (
	fig11Instructions = 600_000
	mixScale          = 0.002
	// setupReps is how often each invocation repeats the workload's
	// set-up; setup_s is the median.
	setupReps = 2
	// minRuns is the fewest timed runs an invocation makes, however long
	// one run takes.
	minRuns = 3
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	experimentsBin string // cmd/experiments, built by run.sh
	workDir        string // scratch space for stores and journals
	spansDir       string // where the traced run writes its spans
	digestsPath    string
	recordPath     string // write observed digests here instead of requiring them
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed runs last")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.experimentsBin, "experiments", "", "path to the built cmd/experiments binary")
	flag.StringVar(&cfg.workDir, "work", "", "scratch directory")
	flag.StringVar(&cfg.spansDir, "spans", "", "directory for the traced run's span files")
	flag.StringVar(&cfg.digestsPath, "digests", "", "committed digest file")
	flag.StringVar(&cfg.recordPath, "record", "", "merge this run's digests into this file")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := runBench(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (c config) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
	}
	if c.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if c.experimentsBin == "" || c.workDir == "" || c.spansDir == "" || c.digestsPath == "" {
		return fmt.Errorf("-experiments, -work, -spans and -digests are required (run.sh sets them)")
	}
	return nil
}

// bench is one invocation's state, shared by the workload hooks.
type bench struct {
	cfg   config
	jobs  int
	want  *digests
	check *unitCheck
	// runDir returns a fresh directory under the invocation's scratch
	// space.
	runDir func(prefix string) (string, error)
	// Workload state made by set-up and used by the timed runs.
	state any
}

// sample is what one timed run measured.
type sample struct {
	wall, cpu, rssMB, simInstr float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(cfg config, out io.Writer) error {
	want, err := loadDigests(cfg.digestsPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	n := 0
	b := &bench{
		cfg:   cfg,
		jobs:  min(2, runtime.NumCPU()),
		want:  want,
		check: newUnitCheck(),
		runDir: func(prefix string) (string, error) {
			n++
			dir := filepath.Join(scratch, fmt.Sprintf("%s-%d", prefix, n))
			return dir, os.MkdirAll(dir, 0o755)
		},
	}
	w := workloads[cfg.workload]
	fmt.Fprintf(out, "perfbench %s seed=%d: %s\n", w.name, cfg.seed, w.inputs(b))

	var res result
	if cfg.trace {
		res, err = traceRun(b, w, out)
	} else {
		res, err = timedRun(b, w, out)
	}
	if err != nil {
		return err
	}
	for _, e := range b.check.errs {
		fmt.Fprintln(out, "check failed:", e)
	}
	if cfg.recordPath != "" {
		if err := recordDigests(cfg.recordPath, w.name, w.digestKey(b), b.check.got); err != nil {
			return err
		}
	}
	res.Attempted, res.Failed = b.check.attempted, b.check.failed
	res.Correct = res.Attempted > 0 && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// timedRun is the -trace 0 invocation: set-up setupReps times, then timed
// runs in a closed loop for the configured seconds.
func timedRun(b *bench, w *workloadDef, out io.Writer) (result, error) {
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		dir, err := b.runDir("setup")
		if err != nil {
			return result{}, err
		}
		t0 := time.Now()
		reused, err := w.setup(b, dir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds()+reused)
	}
	var samples []sample
	start := time.Now()
	for len(samples) < minRuns || time.Since(start).Seconds() < b.cfg.seconds {
		s, err := w.timed(b)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
	}
	rows := []struct {
		name, unit string
		xs         []float64
	}{
		{"wall_s", "s", col(samples, func(s sample) float64 { return s.wall })},
		{"sim_mips", "MIPS", col(samples, func(s sample) float64 { return s.simInstr / s.wall / 1e6 })},
		{"cpu_s", "s", col(samples, func(s sample) float64 { return s.cpu })},
		{"peak_rss_mb", "MB", col(samples, func(s sample) float64 { return s.rssMB })},
		{"setup_s", "s", setups},
	}
	fmt.Fprintf(out, "closed loop: 1 process, %d workers, %d timed runs in %.1f s, %d set-ups\n",
		b.jobs, len(samples), time.Since(start).Seconds(), len(setups))
	res := result{Metrics: map[string]metric{}}
	for _, r := range rows {
		s := summarize(r.xs)
		fmt.Fprintf(out, "  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d  %s\n", r.name, s.Median, s.Q1, s.Q3, s.N, r.unit)
		res.Metrics[r.name] = metric{Value: s.Median, Unit: r.unit}
	}
	frac := 0.0
	if b.check.attempted > 0 {
		frac = float64(b.check.failed) / float64(b.check.attempted)
	}
	fmt.Fprintf(out, "  %-14s %-12.6g (%d of %d units failed; identical simulated statistics, not model accuracy)  fraction\n",
		"unit_fail_frac", frac, b.check.failed, b.check.attempted)
	return res, nil
}

func col(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

// measureInProcess times body as one run in this process. The peak-RSS
// high-water mark is reset first (after returning freed heap to the OS),
// so no run inherits the peak of the one before it.
func measureInProcess(body func() (simInstr float64, err error)) (sample, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return sample{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	c0 := selfCPU()
	t0 := time.Now()
	instr, err := body()
	wall := time.Since(t0).Seconds()
	cpu := selfCPU() - c0
	if err != nil {
		return sample{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return sample{}, err
	}
	return sample{wall: wall, cpu: cpu, rssMB: rss, simInstr: instr}, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// recordDigests merges one run's observed digests into path, creating it if
// needed. It is how the committed digest file is produced.
func recordDigests(path, name, key string, got map[string]string) error {
	d := &digests{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, d); err != nil {
			return err
		}
	}
	put := func(m *map[string]map[string]string) {
		if *m == nil {
			*m = map[string]map[string]string{}
		}
		(*m)[key] = got
	}
	switch name {
	case "fig11-cold", "fig11-warm":
		d.Fig11 = got
	case "mixes-warm":
		put(&d.MixesWarm)
	case "campaign":
		if d.Fig11 == nil {
			d.Fig11 = map[string]string{}
		}
		other := map[string]string{}
		for k, v := range got {
			if strings.HasPrefix(k, "sens/") {
				d.Fig11[k] = v
			} else {
				other[k] = v
			}
		}
		got = other
		put(&d.Campaign)
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
