package main

// The traced run (-trace 1). It measures the layers from outside the
// program: spans are taken in the benchmark's own files around calls into
// each layer's public functions, per chunk or per unit, never per event,
// kept in memory and written to a JSONL file at the end. A layer's cost is
// its self time per event in a probe that feeds the workload's own inputs
// through the structures the workload builds: the Figure 11 lanes for the
// Figure 11 study, the mix's partitions, monitors and accountants at
// mixScale for the mixes. Probes run each layer in isolation, so these
// costs are estimates, not shares of the run's own CPU time. The
// workload's event counts come from the layers' public results
// (tracecache.ReadInfo, Store.Counters, sim.DomainResult and
// partition.Trace) and, for the campaign child, from its -obs-trace output.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"untangle/internal/cache"
	"untangle/internal/campaign"
	"untangle/internal/checkpoint"
	"untangle/internal/core"
	"untangle/internal/covert"
	"untangle/internal/cpu"
	"untangle/internal/experiments"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// tracer keeps spans in memory. Times are nanoseconds on the monotonic
// clock since the tracer started.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) start(parent int64, run, name string) *openSpan {
	return &openSpan{t, span{ID: t.next.Add(1), Parent: parent, Run: run, Name: name, Start: t.now()}}
}

func (o *openSpan) end(events int64) {
	o.s.End, o.s.Events = o.t.now(), events
	o.t.add(o.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do times fn as one root span of the probes; fn returns the events it
// covered.
func (t *tracer) do(name string, fn func() int64) {
	sp := t.start(0, "probe", name)
	sp.end(fn())
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts are the events one timed run of the workload performs, per layer.
type counts struct {
	ops, l1Access         float64 // generator ops; private-L1 accesses
	missRatio             float64 // private-L1 miss ratio of the workload's streams
	llcProbes, llcPart    float64 // LLC probes: Figure 11 lanes; mix partitions and shared LLCs
	retire, retireMix     float64 // cycle-fold events: Figure 11 lanes; mix scheme lanes
	decode, sidecar       float64 // decoded cache events; sidecar loads
	observed, observeMask float64 // monitor HitMask calls; ObserveMask calls
	assessTime, assessUnt float64 // Time and Untangle assessments
	appends               float64 // journal appends
	bytesReadMB, hitRatio float64
	rateTableS            float64 // rate-table build time the workload pays
	rateTableInWall       bool    // whether that build runs inside the timed run
}

// tracedRuns is how many untraced and how many traced runs the traced
// invocation makes.
const tracedRuns = 2

// tracedOut is what the traced timed runs observed. Counts and runtime
// figures are those of the last run; every run is identical in them but
// for timing.
type tracedOut struct {
	mu       sync.Mutex // guards units, appended by concurrent workers
	runs     []sample
	units    []float64 // unit durations of all runs, ms
	allocMB  float64
	gcFrac   float64
	counters tracecache.Counters
	mixes    []*experiments.MixResult
	dirs     []string // campaign: the run directories
}

func traceRun(b *bench, w *workloadDef, out io.Writer) (result, error) {
	tr := newTracer()

	// Set-up once: the warm workloads need their stores, and mixes-warm
	// its rate tables. The campaign needs none.
	if w.name != "campaign" {
		dir, err := b.runDir("setup")
		if err != nil {
			return result{}, err
		}
		if _, err := w.setup(b, dir); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
	}
	// Two untraced and two traced runs, alternating; the overhead compares
	// their medians, and the second traced run doubles the unit sample.
	var untraced []sample
	var traced tracedOut
	for i := 0; i < tracedRuns; i++ {
		u, err := w.timed(b)
		if err != nil {
			return result{}, err
		}
		untraced = append(untraced, u)
		if err := tracedTimed(b, w, tr, &traced); err != nil {
			return result{}, err
		}
	}
	defer func() {
		for _, d := range traced.dirs {
			os.RemoveAll(d)
		}
	}()
	untracedWall := medianOf(col(untraced, func(s sample) float64 { return s.wall }))
	tracedWall := medianOf(col(traced.runs, func(s sample) float64 { return s.wall }))
	tracedCPU := medianOf(col(traced.runs, func(s sample) float64 { return s.cpu }))

	c, in, err := workloadCounts(b, w, tr, &traced)
	if err != nil {
		return result{}, err
	}

	// Layer probes on the workload's own inputs and structures: the Figure
	// 11 part on all 36 benchmark streams, the mix part on the mixes' own
	// entries and results. The journal and the queue are probed on their
	// own in every workload.
	if in.fig11 != nil {
		pst, err := b.newStore("probe")
		if err != nil {
			return result{}, err
		}
		if err := probePipeline(tr, pst); err != nil {
			return result{}, err
		}
		if err := probeSidecars(tr, in.fig11); err != nil {
			return result{}, err
		}
	}
	if in.mixes != nil {
		table, err := probeRateTable()
		if err != nil {
			return result{}, err
		}
		pst, err := b.newStore("probe")
		if err != nil {
			return result{}, err
		}
		if err := probeMixes(tr, in, pst, table); err != nil {
			return result{}, err
		}
	}
	jdir, err := b.runDir("journal")
	if err != nil {
		return result{}, err
	}
	if err := probeJournal(tr, filepath.Join(jdir, "probe.ckpt")); err != nil {
		return result{}, err
	}
	if err := probeQueue(tr); err != nil {
		return result{}, err
	}

	// Per-layer metrics.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	ns := func(name string) float64 { return layerNsPerEvent(spans, self, name) }
	llc := []layerCost{
		{"cache.llc_lane", ns("cache.llc_lane"), c.llcProbes},
		{"cache.llc_part", ns("cache.llc_part"), c.llcPart},
	}
	retire := []layerCost{
		{"cpu.retire", ns("cpu.retire"), c.retire},
		{"cpu.retire_mix", ns("cpu.retire_mix"), c.retireMix},
	}
	layers := []layerCost{
		{"workload.fill", ns("workload.fill"), c.ops},
		{"cache.l1", ns("cache.l1"), c.l1Access},
		llc[0], llc[1], retire[0], retire[1],
		{"tracecache.decode", ns("tracecache.decode"), c.decode},
		{"tracecache.sidecar", ns("tracecache.sidecar"), c.sidecar},
		// HitMask includes its shadow-array probes.
		{"monitor.hitmask", ns("monitor.hitmask"), c.observed},
		{"monitor.observe", ns("monitor.observe"), c.observeMask},
		{"partition.decide_all", ns("partition.decide_all"), c.assessTime / 8},
		{"partition.decide", ns("partition.decide"), c.assessUnt},
		{"core.record", ns("core.record"), c.assessTime + c.assessUnt},
		{"checkpoint.append", ns("checkpoint.append"), c.appends},
	}
	if c.rateTableInWall {
		layers = append(layers, layerCost{"covert.rate_table", c.rateTableS * 1e9, 1})
	}
	p50, tailPct, tailMs, tailOK := 0.0, 50.0, 0.0, false
	busy := 0.0
	if len(traced.units) > 0 {
		p50 = medianOf(traced.units)
		tailPct, tailMs, tailOK = tail(traced.units)
		var sum float64
		for _, u := range traced.units {
			sum += u
		}
		busy = sum / 1e3 / (float64(b.jobs) * tracedWall * float64(len(traced.runs)))
	}
	m := []struct {
		name, unit string
		v          float64
	}{
		{"experiments.unit_p50_ms", "ms", p50},
		{"experiments.unit_tail_ms", "ms", tailMs},
		{"experiments.pool_busy_frac", "fraction", busy},
		{"workload.fill_ns_per_op", "ns", ns("workload.fill")},
		{"workload.ops", "count", c.ops},
		{"cache.l1_ns_per_access", "ns", ns("cache.l1")},
		{"cache.l1_miss_ratio", "fraction", c.missRatio},
		{"cache.llc_lane_ns_per_probe", "ns", weightedNs(llc)},
		{"cache.llc_probes", "count", c.llcProbes + c.llcPart},
		{"cache.shadow_ns_per_access", "ns", ns("cache.shadow")},
		{"monitor.hitmask_ns", "ns", ns("monitor.hitmask")},
		{"monitor.observed", "count", c.observed},
		{"partition.decide_us", "us", ns("partition.decide_all") / 1e3},
		{"partition.assessments", "count", c.assessTime + c.assessUnt},
		{"core.record_ns", "ns", ns("core.record")},
		{"covert.rate_table_s", "s", c.rateTableS},
		{"cpu.retire_ns_per_event", "ns", weightedNs(retire)},
		{"tracecache.decode_ns_per_event", "ns", ns("tracecache.decode")},
		{"tracecache.bytes_read_mb", "MB", c.bytesReadMB},
		{"tracecache.hit_ratio", "fraction", c.hitRatio},
		{"tracecache.encode_ns_per_event", "ns", ns("tracecache.encode")},
		{"tracecache.sidecar_ms", "ms", ns("tracecache.sidecar") / 1e6},
		{"checkpoint.append_ms", "ms", ns("checkpoint.append") / 1e6},
		{"checkpoint.appends", "count", c.appends},
		{"campaign.queue_hop_us", "us", ns("campaign.queue_hop") / 1e3},
		{"runtime.alloc_mb", "MB", traced.allocMB},
		{"runtime.gc_cpu_frac", "fraction", traced.gcFrac},
		{"trace.overhead_frac", "fraction", tracedWall/untracedWall - 1},
		{"trace.attributed_frac", "fraction", attributedFrac(layers, tracedCPU)},
	}
	res := result{Metrics: map[string]metric{}}
	fmt.Fprintf(out, "traced runs: %d untraced and %d traced; median wall %.4g s untraced, %.4g s traced; traced cpu %.4g s; %d units\n",
		len(untraced), len(traced.runs), untracedWall, tracedWall, tracedCPU, len(traced.units))
	tailNote := fmt.Sprintf("p%g of n=%d units", tailPct, len(traced.units))
	if !tailOK {
		tailNote += "; fewer than 10 units lie beyond any percentile, so this is the median"
	}
	for _, r := range m {
		note := ""
		if r.name == "experiments.unit_tail_ms" {
			note = "  (" + tailNote + ")"
		}
		fmt.Fprintf(out, "  %-32s %-14.6g %s%s\n", r.name, r.v, r.unit, note)
		res.Metrics[r.name] = metric{Value: r.v, Unit: r.unit}
	}
	fmt.Fprintln(out, "  attribution (self ns/event x events per run):")
	for _, l := range layers {
		fmt.Fprintf(out, "    %-22s %10.4g ns x %-12.6g = %8.4g s\n", l.Name, l.NsPerEvent, l.Events, l.NsPerEvent*l.Events/1e9)
	}
	path := filepath.Join(b.cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, b.cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %s (%d spans)\n", path, len(spans))
	return res, nil
}

// newStore opens a front-end cache store in a fresh scratch directory.
func (b *bench) newStore(prefix string) (*tracecache.Store, error) {
	dir, err := b.runDir(prefix)
	if err != nil {
		return nil, err
	}
	return tracecache.NewStore(dir, false)
}

// probeInputs are the workload's own inputs the layer probes replay.
type probeInputs struct {
	fig11  *tracecache.Store // Figure 11 entries and sidecars; nil without a Figure 11 part
	mixes  *tracecache.Store // rich mix entries; nil without a mix part
	mixIDs []int
	secret uint64
	// results are the mixes' results, whose assessment traces the
	// accountant probe replays.
	results []*experiments.MixResult
}

// workloadCounts derives the events one run of the workload performs from
// the layers' public results, and collects the inputs the probes replay.
func workloadCounts(b *bench, w *workloadDef, tr *tracer, traced *tracedOut) (counts, probeInputs, error) {
	switch w.name {
	case "fig11-cold", "fig11-warm":
		return fig11Counts(b, tr, traced)
	case "mixes-warm":
		return mixesWarmCounts(b, tr, traced)
	default:
		return campaignCounts(b, tr, traced)
	}
}

var (
	lanes   = float64(len(sim.DefaultConfig(partition.DefaultScheme(partition.Static)).Sizes))
	schemes = float64(len(mixKinds))
)

func fig11Counts(b *bench, tr *tracer, traced *tracedOut) (counts, probeInputs, error) {
	var c counts
	var in probeInputs
	st, warm := b.state.(*tracecache.Store)
	if !warm {
		// The cold study has no store: populate one, untimed, only to read
		// the stream's counts.
		var err error
		if st, err = b.newStore("counts"); err != nil {
			return c, in, err
		}
		if _, err := experiments.WarmFrontEndCache(context.Background(), st, nil, fig11Instructions, b.jobs); err != nil {
			return c, in, err
		}
	}
	e, err := decodeStore(tr, st, true)
	if err != nil {
		return c, in, err
	}
	c.missRatio = e.misses / e.memOps
	c.retire = lanes * e.events
	if warm {
		// Warm passes skip the generator and the L1, and probe the LLC only
		// when a lane sidecar is missing.
		d := traced.counters
		c.decode = e.events
		c.sidecar = float64(d.OutcomeHits + d.OutcomeMisses)
		if c.sidecar > 0 {
			c.llcProbes = lanes * e.misses * float64(d.OutcomeMisses) / c.sidecar
		}
	} else {
		c.ops, c.l1Access = e.events, e.memOps
		c.llcProbes = lanes * e.misses
	}
	c.hitRatio, c.bytesReadMB = hitRatio(traced.counters), float64(traced.counters.BytesRead)/1e6
	in.fig11 = st
	return c, in, nil
}

func mixesWarmCounts(b *bench, tr *tracer, traced *tracedOut) (counts, probeInputs, error) {
	var c counts
	st := b.state.(*mixesState)
	in := probeInputs{mixes: st.store, mixIDs: mixesWarmIDs, secret: mixesWarmInputs(b.cfg.seed).secret, results: traced.mixes}
	e, err := decodeStore(tr, st.store, false)
	if err != nil {
		return c, in, err
	}
	d := traced.counters
	// Entries shared between mixes are decoded once per mix; scale the
	// per-file totals by the bytes the run actually read.
	reads := 1.0
	if e.bytes > 0 {
		reads = float64(d.BytesRead) / e.bytes
	}
	c.decode = e.events * reads
	c.observed = e.observed * reads
	c.observeMask = 2 * c.observed // the Time and Untangle lanes
	c.retireMix = schemes * c.decode
	c.missRatio = e.misses / e.memOps
	c.hitRatio, c.bytesReadMB = hitRatio(d), float64(d.BytesRead)/1e6
	mixCounts(traced.mixes, &c)
	c.rateTableS = st.rateTable
	return c, in, nil
}

// campaignCounts reads the child's stream counts from the Figure 11
// entries and the mix's rich entries, populated untimed in scratch stores,
// and the mix's results replayed from them.
func campaignCounts(b *bench, tr *tracer, traced *tracedOut) (counts, probeInputs, error) {
	var c counts
	var in probeInputs
	ctx := context.Background()
	st, err := b.newStore("counts")
	if err != nil {
		return c, in, err
	}
	if _, err := experiments.WarmFrontEndCache(ctx, st, nil, fig11Instructions, b.jobs); err != nil {
		return c, in, err
	}
	fig, err := decodeStore(tr, st, true)
	if err != nil {
		return c, in, err
	}
	// The child builds its rate table inside the timed run; build the same
	// one here, through the program's own call, to time it.
	t0 := time.Now()
	if err := sim.Scaled(partition.DefaultScheme(partition.Untangle), mixScale).WarmRateTables(); err != nil {
		return c, in, err
	}
	c.rateTableS, c.rateTableInWall = time.Since(t0).Seconds(), true
	mst, err := b.newStore("mixcounts")
	if err != nil {
		return c, in, err
	}
	id := campaignMix(b.cfg.seed)
	if _, err := experiments.WarmMixFrontEnds(ctx, mst, []int{id}, mixScale, 0, b.jobs); err != nil {
		return c, in, err
	}
	mx, err := decodeStore(tr, mst, false)
	if err != nil {
		return c, in, err
	}
	mix, err := workload.MixByID(id)
	if err != nil {
		return c, in, err
	}
	experiments.SetFrontEndCache(mst)
	res, err := experiments.RunMix(mix, experiments.Options{Scale: mixScale, Jobs: b.jobs})
	experiments.SetFrontEndCache(nil)
	if err != nil {
		return c, in, err
	}
	c.ops = fig.events + mx.events
	c.l1Access = fig.memOps + mx.memOps
	c.missRatio = (fig.misses + mx.misses) / c.l1Access
	c.llcProbes = lanes * fig.misses
	c.retire, c.retireMix = lanes*fig.events, schemes*mx.events
	c.observed = mx.observed
	c.observeMask = 2 * mx.observed
	mixCounts([]*experiments.MixResult{res}, &c)
	keys, _, err := journalUnits(filepath.Join(traced.dirs[0], "run.ckpt"))
	if err != nil {
		return c, in, err
	}
	c.appends = float64(len(keys))
	in = probeInputs{fig11: st, mixes: mst, mixIDs: []int{id}, results: []*experiments.MixResult{res}}
	return c, in, nil
}

func hitRatio(c tracecache.Counters) float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// mixCounts adds the mixes' LLC probes (partitions and the Shared LLC)
// and assessments from their results. Shared reports its LLC totals on
// every domain, so only one is counted.
func mixCounts(results []*experiments.MixResult, c *counts) {
	for _, res := range results {
		for _, k := range mixKinds {
			r := res.PerScheme[k]
			for i, d := range r.Domains {
				if k != partition.Shared || i == 0 {
					c.llcPart += float64(d.LLC.Accesses())
				}
				switch k {
				case partition.TimeBased:
					c.assessTime += float64(len(d.Trace))
				case partition.Untangle:
					c.assessUnt += float64(len(d.Trace))
				}
			}
		}
	}
}

// runtimeSnapshot reads the allocation and GC CPU counters of this process.
func runtimeSnapshot() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// tracedTimed is one timed run with unit spans on. In-process workloads
// get a span per sensitivity or mix unit and runtime/metrics deltas; the
// campaign child writes its own unit spans (-obs-trace) and reports its GC
// through GODEBUG=gctrace=1.
func tracedTimed(b *bench, w *workloadDef, tr *tracer, out *tracedOut) error {
	if w.name == "campaign" {
		dir, err := b.runDir("obs")
		if err != nil {
			return err
		}
		obsPath := filepath.Join(dir, "obs.jsonl")
		s, runDir, stderr, err := b.runCampaign([]string{"GODEBUG=gctrace=1"}, "-obs-trace", obsPath)
		if err != nil {
			return err
		}
		out.runs, out.dirs = append(out.runs, s), append(out.dirs, runDir)
		units, err := importObsTrace(tr, obsPath)
		if err != nil {
			return err
		}
		out.units = append(out.units, units...)
		var gcCPU float64
		out.allocMB, gcCPU = parseGCTrace(stderr)
		out.gcFrac = gcCPU / s.cpu
		return nil
	}
	run := tr.start(0, "traced", w.name)
	unit := func() func() {
		sp := tr.start(run.s.ID, "traced", "experiments.unit")
		return func() {
			sp.end(1)
			out.addUnit(sp.s.End - sp.s.Start)
		}
	}
	experiments.SetUnitObserver(func(phase, _ string) func(string, error) {
		if phase != "sensitivity" {
			return nil
		}
		done := unit()
		return func(string, error) { done() }
	})
	defer experiments.SetUnitObserver(nil)
	var store *tracecache.Store
	switch st := b.state.(type) {
	case *tracecache.Store:
		store = st
	case *mixesState:
		store = st.store
	}
	var c0 tracecache.Counters
	if store != nil {
		c0 = store.Counters()
	}
	a0, g0, t0 := runtimeSnapshot()
	var s sample
	var err error
	if w.name == "mixes-warm" {
		experiments.SetFrontEndCache(store)
		in := mixesWarmInputs(b.cfg.seed)
		s, err = measureInProcess(func() (float64, error) {
			res, instr, err := b.runMixes(mixesWarmIDs, in, func(int) func() { return unit() })
			out.mixes = res
			return instr, err
		})
		experiments.SetFrontEndCache(nil)
	} else {
		s, err = w.timed(b)
	}
	if err != nil {
		return err
	}
	out.runs = append(out.runs, s)
	a1, g1, t1 := runtimeSnapshot()
	run.end(0)
	out.allocMB = (a1 - a0) / 1e6
	if t1 > t0 {
		out.gcFrac = (g1 - g0) / (t1 - t0)
	}
	if store != nil {
		c1 := store.Counters()
		out.counters = tracecache.Counters{
			Hits:          c1.Hits - c0.Hits,
			Misses:        c1.Misses - c0.Misses,
			BytesRead:     c1.BytesRead - c0.BytesRead,
			OutcomeHits:   c1.OutcomeHits - c0.OutcomeHits,
			OutcomeMisses: c1.OutcomeMisses - c0.OutcomeMisses,
		}
	}
	return nil
}

func (o *tracedOut) addUnit(ns int64) {
	o.mu.Lock()
	o.units = append(o.units, float64(ns)/1e6)
	o.mu.Unlock()
}

// importObsTrace reads the campaign child's span trace, adds its spans to
// the tracer (run "campaign-child", times relative to its first record)
// and returns the durations of its sensitivity and mix units in ms.
func importObsTrace(tr *tracer, path string) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type rec struct {
		Ev     string `json:"ev"`
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Phase  string `json:"phase"`
		Name   string `json:"name"`
		AtNs   int64  `json:"at_unix_ns"`
		DurNs  int64  `json:"dur_ns"`
	}
	starts := map[int64]rec{}
	var units []float64
	var base int64
	idBase := tr.next.Add(1 << 20) // keep the child's ids apart from ours
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("obs trace %s: %w", path, err)
		}
		if base == 0 {
			base = r.AtNs
		}
		if r.Ev == "start" {
			starts[r.ID] = r
			continue
		}
		st, ok := starts[r.ID]
		if !ok {
			continue
		}
		s := span{ID: idBase + r.ID, Run: "campaign-child", Name: st.Phase, Start: st.AtNs - base, End: r.AtNs - base}
		if st.Parent != 0 {
			s.Parent = idBase + st.Parent
		}
		tr.add(s)
		if st.Phase == "sensitivity" || st.Phase == "mix" {
			units = append(units, float64(r.DurNs)/1e6)
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("obs trace %s: no unit spans", path)
	}
	return units, nil
}

var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: \S+ ms clock, ([0-9.]+)\+([0-9.]+)/([0-9.]+)/([0-9.]+)\+([0-9.]+) ms cpu, (\d+)->(\d+)->(\d+) MB`)

// parseGCTrace reads GODEBUG=gctrace=1 lines. Each collection's CPU is the
// sum of its five "ms cpu" terms (pauses, assists, background and idle
// marking), and the heap growth between consecutive collections (size at
// start minus live size after the one before) sums to the bytes allocated
// up to the last collection.
func parseGCTrace(stderr string) (allocMB, gcCPUSeconds float64) {
	var prevLive float64
	for _, line := range strings.Split(stderr, "\n") {
		m := gcLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, f := range m[1:6] {
			ms, _ := strconv.ParseFloat(f, 64)
			gcCPUSeconds += ms / 1e3
		}
		start, _ := strconv.ParseFloat(m[6], 64)
		live, _ := strconv.ParseFloat(m[8], 64)
		allocMB += max(0, start-prevLive)
		prevLive = live
	}
	return allocMB, gcCPUSeconds
}

// entryTotals sums a store's entries.
type entryTotals struct {
	events, memOps, misses, observed, bytes float64
}

// decodeStore reads every entry of st: ReadInfo for its counts (untimed),
// then a timed decode through Reader.Read, one span per batch, which also
// counts the monitor-observed events of rich entries. classic selects the
// Figure 11 entries, otherwise the rich mix entries.
func decodeStore(tr *tracer, st *tracecache.Store, classic bool) (entryTotals, error) {
	var t entryTotals
	paths, err := filepath.Glob(filepath.Join(st.Dir(), "*.fetrace"))
	if err != nil {
		return t, err
	}
	buf := make([]tracecache.Event, 4096)
	for _, p := range paths {
		info, err := tracecache.ReadInfo(p)
		if err != nil {
			return t, err
		}
		if info.Rich == classic {
			continue
		}
		t.events += float64(info.Events)
		t.memOps += float64(info.MemOps())
		t.misses += float64(info.ByKind[tracecache.KindL1Miss])
		t.bytes += float64(info.Bytes)
		r, err := st.Open(info.Key)
		if err != nil || r == nil {
			return t, fmt.Errorf("reopen %s: %v", p, err)
		}
		for {
			var n int
			var rerr error
			tr.do("tracecache.decode", func() int64 {
				n, rerr = r.Read(buf)
				return int64(n)
			})
			for _, ev := range buf[:n] {
				if ev.Flags&tracecache.FlagMonObserve != 0 {
					t.observed++
				}
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				r.Close()
				return t, rerr
			}
		}
		r.Close()
	}
	return t, nil
}

// probeInstructions is the stream length each probed benchmark feeds the
// probes: a whole Figure 11 pass (warm-up and measured half), so the caches
// go through the same cold start and steady state as in the engines.
const probeInstructions = 2 * fig11Instructions

// probePipeline feeds each of the 36 benchmark streams, one 4096-op chunk
// at a time, through the Figure 11 study's front-end layers: the
// generator, the private L1 as a cache.Lane, the nine LLC lanes, the cycle
// fold on cpu.Core, the trace-cache encoder and the lane sidecars. Each
// layer call on a chunk is one span.
func probePipeline(tr *tracer, st *tracecache.Store) error {
	cfg := sim.DefaultConfig(partition.DefaultScheme(partition.Static))
	offset := sim.DomainAddrOffset(0)
	buf := make([]isa.Op, 4096)
	events := make([]tracecache.Event, 0, len(buf))
	for _, p := range workload.SPECBenchmarks {
		gen, err := workload.NewGenerator(p)
		if err != nil {
			return err
		}
		stream := isa.NewLimited(gen, probeInstructions)
		l1 := cache.MustNewLane(cache.Config{SizeBytes: cfg.L1Bytes, Ways: cfg.L1Ways})
		lanes := make([]*cache.Lane, len(cfg.Sizes))
		cores := make([]*cpu.Core, len(cfg.Sizes))
		bits := make([][]uint64, len(cfg.Sizes))
		for i, size := range cfg.Sizes {
			lanes[i] = cache.MustNewLane(cache.Config{SizeBytes: size, Ways: cfg.LLCWays})
			cores[i] = cpu.New(p.CPUParams())
		}
		key := tracecache.Key{Benchmark: "probe-" + p.Name, Instructions: probeInstructions, L1Bytes: cfg.L1Bytes, L1Ways: cfg.L1Ways, ParamsTag: "perfbench-probe"}
		w, err := st.Create(key)
		if err != nil {
			return err
		}
		var misses []uint64
		cursor := 0
		for {
			var ops []isa.Op
			tr.do("workload.fill", func() int64 {
				ops = buf[:stream.Fill(buf)]
				return int64(len(ops))
			})
			if len(ops) == 0 {
				break
			}
			tr.do("cache.l1", func() int64 {
				events, misses = events[:0], misses[:0]
				for _, op := range ops {
					ev := tracecache.Event{NonMem: op.NonMem}
					if op.IsMem() {
						addr := op.Addr + offset
						if l1.Access(addr) {
							ev.Kind = tracecache.KindL1Hit
						} else {
							ev.Kind, ev.Addr = tracecache.KindL1Miss, addr
							misses = append(misses, addr)
						}
					}
					events = append(events, ev)
				}
				return int64(len(ops))
			})
			words := (cursor + len(misses) + 63) / 64
			for i := range bits {
				for len(bits[i]) < words {
					bits[i] = append(bits[i], 0)
				}
			}
			tr.do("cache.llc_lane", func() int64 {
				for i, lane := range lanes {
					for k, a := range misses {
						if lane.Access(a) {
							j := cursor + k
							bits[i][j>>6] |= 1 << (j & 63)
						}
					}
				}
				return int64(len(lanes) * len(misses))
			})
			tr.do("cpu.retire", func() int64 {
				for i, core := range cores {
					j := cursor
					for _, ev := range events {
						core.RetireNonMem(ev.NonMem)
						switch ev.Kind {
						case tracecache.KindL1Hit:
							core.RetireMem(cpu.L1Hit)
						case tracecache.KindL1Miss:
							if bits[i][j>>6]>>(uint(j)&63)&1 != 0 {
								core.RetireMem(cpu.LLCHit)
							} else {
								core.RetireMem(cpu.Memory)
							}
							j++
						}
					}
				}
				return int64(len(cores) * len(events))
			})
			cursor += len(misses)
			var werr error
			tr.do("tracecache.encode", func() int64 {
				werr = w.WriteEvents(events)
				return int64(len(events))
			})
			if werr != nil {
				return werr
			}
		}
		var cerr error
		tr.do("tracecache.encode", func() int64 {
			cerr = w.Commit()
			return 0
		})
		if cerr != nil {
			return cerr
		}
		if err := st.SaveLaneOutcomes(key, cfg.LLCWays, cfg.Sizes, uint64(cursor), bits); err != nil {
			return err
		}
		tr.do("tracecache.sidecar", func() int64 {
			if _, ok := st.OpenLaneOutcomes(key, cfg.LLCWays, cfg.Sizes, uint64(cursor)); !ok {
				return 0
			}
			return 1
		})
	}
	return nil
}

// probeSidecars times Store.OpenLaneOutcomes on the real Figure 11
// sidecars of st, where it has them.
func probeSidecars(tr *tracer, st *tracecache.Store) error {
	cfg := sim.DefaultConfig(partition.DefaultScheme(partition.Static))
	paths, err := filepath.Glob(filepath.Join(st.Dir(), "*.fetrace"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		info, err := tracecache.ReadInfo(p)
		if err != nil {
			return err
		}
		if info.Rich {
			continue
		}
		tr.do("tracecache.sidecar", func() int64 {
			if _, ok := st.OpenLaneOutcomes(info.Key, cfg.LLCWays, cfg.Sizes, info.ByKind[tracecache.KindL1Miss]); !ok {
				return 0
			}
			return 1
		})
	}
	return nil
}

// probeRateTable returns the covert rate table the Untangle accountant uses
// at mixScale, for the accountant probe. The simulator keeps its table
// configuration private, so the probe derives it the way sim.Config does
// (a 1/40-cooldown time unit and 16 Maintain entries) and verifies the
// copy: after the program's own WarmRateTables, a matching configuration
// is a cache hit, while a drifted one would build a new table for seconds.
func probeRateTable() (*covert.RateTable, error) {
	cfg := sim.Scaled(partition.DefaultScheme(partition.Untangle), mixScale)
	if err := cfg.WarmRateTables(); err != nil {
		return nil, err
	}
	s := cfg.Scheme
	unit := s.Cooldown / 40
	if unit <= 0 {
		unit = time.Microsecond
	}
	t0 := time.Now()
	table, err := covert.Shared(covert.TableConfig{Unit: unit, Cooldown: s.Cooldown, DelayWidth: s.DelayWidth, MaxMaintains: 16})
	if err != nil {
		return nil, err
	}
	if took := time.Since(t0); took > 100*time.Millisecond {
		return nil, fmt.Errorf("the probe's rate-table configuration drifted from the simulator's: building it took %v after WarmRateTables", took)
	}
	return table, nil
}

// mixEntry finds the rich entry of one mix domain among entries: the pair
// in the domain slot, at the secret, annotated.
func mixEntry(entries []tracecache.Key, pair workload.Pair, domain int, secret uint64) (tracecache.Key, error) {
	prefix := fmt.Sprintf("mix-%s-d%d", pair, domain)
	for _, k := range entries {
		if k.Flavor == "mix" && k.Domain == domain && k.Secret == secret && !k.Unannotated && strings.HasPrefix(k.Benchmark, prefix) {
			return k, nil
		}
	}
	return tracecache.Key{}, fmt.Errorf("no rich entry for %s in domain %d", pair, domain)
}

// probeMixes replays every domain's rich entry of the workload's mixes,
// one 4096-event chunk at a time, through the structures the mix back ends
// build at mixScale: the domain's LLC partition (a cache.Cache of the
// scheme's start size), the cycle fold on the domain's cpu.Core, the rich
// trace-cache encoder, the monitor's shadow arrays and its hit-mask path.
// Each layer call on a chunk is one span. It then times the partition
// controller on the utilities those monitors collected, and both
// accountants on the mixes' own assessment traces.
func probeMixes(tr *tracer, in probeInputs, st *tracecache.Store, table *covert.RateTable) error {
	cfg := sim.Scaled(partition.DefaultScheme(partition.Untangle), mixScale)
	alloc, err := partition.NewAllocator(cfg.Sizes, cfg.LLCBytes)
	if err != nil {
		return err
	}
	startSize := alloc.FloorSize(cfg.Scheme.StartSize)
	monCfg := monitor.Config{Sizes: cfg.Sizes, Ways: cfg.LLCWays, Window: cfg.MonitorWindow, SampleLog2: cfg.MonitorSampleLog2}
	paths, err := filepath.Glob(filepath.Join(in.mixes.Dir(), "*.fetrace"))
	if err != nil {
		return err
	}
	var entries []tracecache.Key
	for _, p := range paths {
		info, err := tracecache.ReadInfo(p)
		if err != nil {
			return err
		}
		entries = append(entries, info.Key)
	}
	buf := make([]tracecache.Event, 4096)
	hits := make([]bool, 0, len(buf))
	masks := make([]uint16, 0, len(buf))
	var utilities [][][]float64 // per mix, per domain
	for _, id := range in.mixIDs {
		mix, err := workload.MixByID(id)
		if err != nil {
			return err
		}
		u := make([][]float64, len(mix.Pairs))
		for d, pair := range mix.Pairs {
			key, err := mixEntry(entries, pair, d, in.secret)
			if err != nil {
				return err
			}
			spec, err := workload.SPECByName(pair.SPEC)
			if err != nil {
				return err
			}
			part := cache.MustNew(cache.Config{SizeBytes: startSize, Ways: cfg.LLCWays})
			shadow := cache.MustNew(cache.Config{SizeBytes: cfg.Sizes[len(cfg.Sizes)-1] >> monCfg.SampleLog2, Ways: cfg.LLCWays})
			mon, err := monitor.New(monCfg)
			if err != nil {
				return err
			}
			fold := cpu.New(spec.CPUParams())
			r, err := in.mixes.Open(key)
			if err != nil || r == nil {
				return fmt.Errorf("reopen %v: %v", key, err)
			}
			out := key
			out.Benchmark = "probe-" + key.Benchmark
			w, err := st.CreateRich(out)
			if err != nil {
				r.Close()
				return err
			}
			for {
				n, rerr := r.Read(buf)
				events := buf[:n]
				tr.do("cache.llc_part", func() int64 {
					hits = hits[:0]
					for _, ev := range events {
						if ev.Kind == tracecache.KindL1Miss {
							hits = append(hits, part.Access(ev.Addr, ev.Flags&tracecache.FlagWrite != 0))
						}
					}
					return int64(len(hits))
				})
				tr.do("cpu.retire_mix", func() int64 {
					j := 0
					for _, ev := range events {
						fold.RetireNonMem(ev.NonMem)
						switch ev.Kind {
						case tracecache.KindL1Hit:
							fold.RetireMem(cpu.L1Hit)
						case tracecache.KindL1Miss:
							if hits[j] {
								fold.RetireMem(cpu.LLCHit)
							} else {
								fold.RetireMem(cpu.Memory)
							}
							j++
						}
					}
					return int64(len(events))
				})
				var werr error
				tr.do("tracecache.encode", func() int64 {
					werr = w.WriteEvents(events)
					return int64(len(events))
				})
				tr.do("cache.shadow", func() int64 {
					var k int64
					for _, ev := range events {
						if ev.Flags&tracecache.FlagMonObserve != 0 {
							shadow.ShadowAccess(ev.Addr)
							k++
						}
					}
					return k
				})
				tr.do("monitor.hitmask", func() int64 {
					masks = masks[:0]
					for _, ev := range events {
						if ev.Flags&tracecache.FlagMonObserve != 0 {
							masks = append(masks, mon.HitMask(ev.Addr, ev.Flags&tracecache.FlagWrite != 0))
						}
					}
					return int64(len(masks))
				})
				tr.do("monitor.observe", func() int64 {
					for _, m := range masks {
						mon.ObserveMask(m)
					}
					return int64(len(masks))
				})
				if werr == nil && rerr != nil && rerr != io.EOF {
					werr = rerr
				}
				if werr != nil || rerr == io.EOF {
					r.Close()
					if werr != nil {
						return werr
					}
					break
				}
			}
			var cerr error
			tr.do("tracecache.encode", func() int64 {
				cerr = w.Commit()
				return 0
			})
			if cerr != nil {
				return cerr
			}
			for _, x := range mon.Utilities() {
				u[d] = append(u[d], x.Hits)
			}
		}
		utilities = append(utilities, u)
	}

	// The controller on each mix's measured utilities.
	const calls, batch = 2000, 200
	for _, u := range utilities {
		current := make([]int64, len(u))
		for d := range current {
			current[d] = startSize
		}
		for n := 0; n < calls; n += batch {
			tr.do("partition.decide_all", func() int64 {
				for i := 0; i < batch; i++ {
					current = alloc.DecideAll(current, u, cfg.Scheme.MaintainFraction, float64(cfg.MonitorWindow))
				}
				return batch
			})
			tr.do("partition.decide", func() int64 {
				for i := 0; i < batch; i++ {
					alloc.Decide(i%len(u), current, u, cfg.Scheme.MaintainFraction, float64(cfg.MonitorWindow))
				}
				return batch
			})
		}
	}

	// Both accountants on the mixes' own assessment traces, in time order,
	// each replayed into fresh accountants until 20 000 records are timed.
	for _, res := range in.results {
		for _, k := range []partition.Kind{partition.TimeBased, partition.Untangle} {
			r := res.PerScheme[k]
			var trace partition.Trace
			for _, d := range r.Domains {
				trace = append(trace, d.Trace...)
			}
			sort.SliceStable(trace, func(i, j int) bool { return trace[i].At < trace[j].At })
			if len(trace) == 0 {
				continue
			}
			acfg := core.AccountantConfig{Domains: len(r.Domains), Actions: len(cfg.Sizes), OptimizeMaintain: true}
			for done := 0; done < 20_000; done += len(trace) {
				var a core.Accountant
				if k == partition.Untangle {
					acfg.Table = table
					a, err = core.NewUntangleAccountant(acfg)
				} else {
					a, err = core.NewTimeAccountant(acfg)
				}
				if err != nil {
					return err
				}
				for i := 0; i < len(trace); i += 1000 {
					chunk := trace[i:min(i+1000, len(trace))]
					tr.do("core.record", func() int64 {
						for _, as := range chunk {
							a.RecordAssessment(as.Domain, as.Visible, as.ApplyAt)
						}
						return int64(len(chunk))
					})
				}
			}
		}
	}
	return nil
}

// probeJournal times checkpoint.Journal.Record, fsync included, with a
// value the size of a sensitivity unit.
func probeJournal(tr *tracer, path string) error {
	j, err := checkpoint.Open(path, checkpoint.Fingerprint{Scale: mixScale, Instructions: fig11Instructions, ParamsTag: "perfbench-probe"})
	if err != nil {
		return err
	}
	defer j.Close()
	value := sensJournalValue{Name: "probe", Sizes: make([]int64, 9), NormIPC: make([]uint64, 9)}
	for i := range value.Sizes {
		value.Sizes[i], value.NormIPC[i] = int64(128<<10)<<i, 4607182418800017408-uint64(i)
	}
	for i := 0; i < 20; i++ {
		var rerr error
		tr.do("checkpoint.append", func() int64 {
			rerr = j.Record(fmt.Sprintf("sens/probe_%d", i), value)
			return 1
		})
		if rerr != nil {
			return rerr
		}
	}
	return nil
}

// probeQueue times campaign.Queue Push plus Pop pairs.
func probeQueue(tr *tracer) error {
	ctx := context.Background()
	q := campaign.NewQueue[int](64)
	defer q.Close()
	for n := 0; n < 20_000; n += 1000 {
		var err error
		tr.do("campaign.queue_hop", func() int64 {
			for i := 0; i < 1000 && err == nil; i++ {
				if err = q.Push(ctx, i%4, i); err == nil {
					_, err = q.Pop(ctx)
				}
			}
			return 1000
		})
		if err != nil {
			return err
		}
	}
	return nil
}
