// The fused mix engine: one front-end pass per mix serving all four
// scheme back-ends of the Figure 10 / Table 6 pipeline.
//
// Within one mix, the four RunMixContext simulations (Shared, Static,
// Time, Untangle) differ only below the shared LLC: partition backend,
// monitor windows, partition controller, accountant. Everything upstream
// is byte-identical across them — the generators (same parameters and
// seeds), the address-space offsets, the private L1s, and even the
// monitor's eligibility gate (annotation filter + the monitor's own
// L1-sized filter cache, both pure functions of the op stream because
// Scheme.Annotated is uniform across the four kinds). The engine therefore
// runs each domain's front-end once — workload generator + private L1,
// including the Seed+=0xA5A5 pressure variant — tees the post-L1 stream
// through isa.Chunks into an in-memory tape of rich tracecache events
// (hit/miss resolution, write bit, monitor and public-progress gates, L1
// eviction/writeback counts), and replays the tape into four scheme lanes.
//
// Unlike the sensitivity engine's lean cache.Lane replay, a mix lane is a
// full sim.Sim: the same quantum machine, partition controller, monitor,
// accountant, and telemetry paths as the live run, fed through the
// sim.ReplaySource seam (DomainSpec.Replay) so cross-domain interleaving,
// dynamic resizes, and leakage accounting reproduce the per-scheme oracle
// bitwise — runMixOracle is retained, and TestMixFusionMatchesOracle
// requires IPCs, leakage, Table 6 rows, and telemetry buffers to match
// exactly, cold and fe-cache-warm.
//
// With a front-end cache attached (SetFrontEndCache; -fe-cache on
// cmd/experiments), each domain's tape is persisted as a rich .fetrace
// entry: the measured stream, a KindMeasuredEnd marker, then a pressure
// tail sized to what the slowest lane actually consumed plus slack. The
// entry stores each observed access's monitor hit mask, and its key names
// the monitor geometry, so warm runs decode the entry instead of
// generating and run no shadow-array pass either. The pressure tail is the
// one stored quantity whose needed length depends on the scheme mix — a
// warm run that drains it (a lane kept a domain alive longer than the
// recorded run did) discards its results, deletes the short entries, and
// regenerates them cold; see runMixFused.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"untangle/internal/cache"
	"untangle/internal/isa"
	"untangle/internal/monitor"
	"untangle/internal/parallel"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// mixReplayEventBudget caps the events one mix's tapes may hold in memory
// (all eight domains together, measured plus pressure). Past it the fused
// path steps aside and the mix runs on the per-scheme oracle; the first
// over-budget scale is remembered so later mixes of the same campaign skip
// straight to the oracle instead of rediscovering the limit mid-run.
const mixReplayEventBudget = 64 << 20

// mixFusionMaxRestarts bounds the underrun-regeneration loop: each restart
// forces at least one more domain cold, so eight always suffice.
const mixFusionMaxRestarts = 8

// Sentinel conditions the fused engine resolves itself (oracle fallback or
// cold regeneration) when no telemetry sinks are attached, and surfaces as
// retryable errors when they are — a retry with fresh sinks (parallel.Retry
// in runMixUnit provides exactly that) takes the recovery path cleanly.
var (
	errMixOverBudget     = errors.New("experiments: fused mix tape exceeds the replay memory budget")
	errMixReplayUnderrun = errors.New("experiments: fused mix replay drained a cached pressure tail; short entries removed, retry regenerates them")
)

// mixOverBudgetScaleBits remembers (as math.Float64bits) the smallest scale
// whose tape overran mixReplayEventBudget in this process; zero means none.
var mixOverBudgetScaleBits atomic.Uint64

func noteMixOverBudget(scale float64) {
	bits := math.Float64bits(scale)
	for {
		cur := mixOverBudgetScaleBits.Load()
		if cur != 0 && math.Float64frombits(cur) <= scale {
			return
		}
		if mixOverBudgetScaleBits.CompareAndSwap(cur, bits) {
			return
		}
	}
}

func mixScaleOverBudget(scale float64) bool {
	cur := mixOverBudgetScaleBits.Load()
	return cur != 0 && scale >= math.Float64frombits(cur)
}

// mixStreamKey is the trace-cache identity of one mix domain's front-end
// stream: the pair, the domain slot (the address-space offset hashes into
// L1 set selection, so the same pair behaves differently per slot), the
// scaled phase lengths and total, the secret, the annotation switch (both
// gates are baked into the recorded flags), and the monitor geometry the
// stored hit masks were resolved under (mon; WayPartitioned runs use
// other candidate sizes). The variant fields also suffix the benchmark
// name so every distinct key gets a distinct file.
func mixStreamKey(pair workload.Pair, idx int, scale float64, secret uint64, annotated bool, l1Bytes int64, l1Ways int, mon monitor.Config) tracecache.Key {
	name := fmt.Sprintf("mix-%s-d%d", pair.String(), idx)
	if secret != 0 {
		name += fmt.Sprintf("-s%x", secret)
	}
	if !annotated {
		name += "-noannot"
	}
	geometry := fmt.Sprintf("sizes=%v ways=%d sample-log2=%d", mon.Sizes, mon.Ways, mon.SampleLog2)
	h := fnv.New32a()
	h.Write([]byte(geometry))
	name += fmt.Sprintf("-m%08x", h.Sum32())
	return tracecache.Key{
		Benchmark:    name,
		Instructions: scaleCount(fullTotal, scale),
		L1Bytes:      l1Bytes,
		L1Ways:       l1Ways,
		ParamsTag:    cachedParamsTag(),
		Flavor:       "mix",
		Domain:       idx,
		CryptoPhase:  scaleCount(fullCryptoPhase, scale),
		SpecPhase:    scaleCount(fullSPECPhase, scale),
		Secret:       secret,
		Unannotated:  !annotated,
		Monitor:      geometry,
	}
}

// mixCheckpoint is the front-end's per-chunk control point: context
// cancellation plus the engine fault-injection hook, the same cadence as
// the sensitivity engine's checkpoint so kill-and-resume tests can land a
// fault inside a mix front-end pass.
func mixCheckpoint(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if h := engineChunkHook.Load(); h != nil {
		if err := (*h)(); err != nil {
			return err
		}
	}
	return nil
}

// mixFrontEnd is one domain's live front-end: the measured stream, the
// endless pressure stream (both via isa.Chunks), and the two private
// caches whose outcomes the events record — the real L1 and the monitor's
// own filter cache, simulated here once because its state is a pure
// function of the public access sequence (Principle 1) and therefore
// lane-independent.
type mixFrontEnd struct {
	ctx       context.Context
	measured  *isa.Chunks // nil once drained
	pressure  *isa.Chunks
	l1        *cache.Cache
	monL1     *cache.Cache
	rec       *monitor.Monitor // shadow-array recorder; see resolve
	offset    uint64
	annotated bool
	budget    *atomic.Int64
}

// resolve turns one op into the rich event the scheme lanes replay. Every
// decision a lane would otherwise make upstream of its LLC is folded into
// the kind and flags, in exactly sim.runDomainUntil's order and with its
// gates.
func (fe *mixFrontEnd) resolve(op isa.Op) feEvent {
	ev := feEvent{NonMem: op.NonMem}
	if !op.SecretProgress() || !fe.annotated {
		ev.Flags |= tracecache.FlagPublic
	}
	if op.IsMem() {
		addr := op.Addr + fe.offset
		write := op.IsWrite()
		if write {
			ev.Flags |= tracecache.FlagWrite
		}
		before := fe.l1.Stats()
		if fe.l1.Access(addr, write) {
			ev.Kind = tracecache.KindL1Hit
		} else {
			ev.Kind = tracecache.KindL1Miss
			ev.Addr = addr
			after := fe.l1.Stats()
			if after.Evictions != before.Evictions {
				ev.Flags |= tracecache.FlagL1Evict
			}
			if after.Writebacks != before.Writebacks {
				ev.Flags |= tracecache.FlagL1Writeback
			}
		}
		if (!op.SecretUse() || !fe.annotated) && !fe.monL1.Access(addr, write) {
			ev.Flags |= tracecache.FlagMonObserve
			ev.Addr = addr
			// The shadow-array resolution is as scheme-independent as the
			// gate itself: record the per-size hit vector once so dynamic
			// lanes replay it instead of re-simulating nine shadow caches.
			ev.MonMask = fe.rec.HitMask(addr, write)
		}
	}
	return ev
}

// mixTape is one domain's shared event tape. Chunks are immutable once
// published; a live tape (fe != nil) extends lazily under mu when the
// leading lane outruns what exists, a sealed tape (decoded from the cache)
// never grows. measured marks the boundary between the measured stream and
// the pressure tail.
type mixTape struct {
	mu           sync.Mutex
	chunks       [][]feEvent
	total        int
	measured     int
	haveMeasured bool
	fe           *mixFrontEnd
	err          error
	cold         bool // generated this run (candidate for persisting)
}

// fail seals the tape with an error; every lane's source sees it drained.
func (t *mixTape) fail(err error) {
	t.err = err
	t.fe = nil
}

// produce extends the tape by one chunk (caller holds mu): the next batch
// of the measured stream, or — once it drains, recording the boundary —
// the pressure stream.
func (t *mixTape) produce() {
	fe := t.fe
	if err := mixCheckpoint(fe.ctx); err != nil {
		t.fail(err)
		return
	}
	var ops []isa.Op
	if fe.measured != nil {
		ops = fe.measured.Next()
		if len(ops) == 0 {
			fe.measured = nil
			t.measured = t.total
			t.haveMeasured = true
			return
		}
	} else {
		ops = fe.pressure.Next()
		if len(ops) == 0 {
			t.fail(errors.New("experiments: mix pressure stream dried"))
			return
		}
	}
	chunk := make([]feEvent, len(ops))
	for i, op := range ops {
		chunk[i] = fe.resolve(op)
	}
	t.chunks = append(t.chunks, chunk)
	t.total += len(chunk)
	if fe.budget.Add(int64(len(chunk))) > mixReplayEventBudget {
		t.fail(errMixOverBudget)
	}
}

// mixSource is one lane's private cursor over a tape; it implements
// sim.ReplaySource. Sources snapshot the tape's published state and only
// take the lock to pull more, so concurrent lanes replay lock-free over
// the immutable prefix.
type mixSource struct {
	t            *mixTape
	chunks       [][]feEvent
	total        int
	measured     int
	haveMeasured bool
	ci, off      int // cursor within the chunk snapshot
	pos          int // global event position
	sentEnd      bool
	underrun     bool
}

// NextEvents implements sim.ReplaySource: batches up to the measured-end
// boundary (delivered as one empty batch, the driver's finish signal),
// then pressure batches. A sealed tape that drains while the lane still
// wants events marks the source underrun — the recorded pressure tail was
// shorter than this scheme mix needs — and idles the lane out; the engine
// discards the attempt and regenerates.
func (s *mixSource) NextEvents() []feEvent {
	for {
		if s.haveMeasured && !s.sentEnd && s.pos == s.measured {
			s.sentEnd = true
			return nil
		}
		if s.pos >= s.total {
			if !s.refresh() {
				s.underrun = true
				return nil
			}
			continue
		}
		chunk := s.chunks[s.ci]
		if s.off >= len(chunk) {
			s.ci++
			s.off = 0
			continue
		}
		end := len(chunk)
		if s.haveMeasured && !s.sentEnd && s.measured < s.pos+(end-s.off) {
			end = s.off + (s.measured - s.pos)
		}
		batch := chunk[s.off:end]
		s.off = end
		s.pos += len(batch)
		return batch
	}
}

// refresh re-snapshots the tape, extending it first if it is live and the
// cursor has caught up. False means nothing more will come.
func (s *mixSource) refresh() bool {
	t := s.t
	t.mu.Lock()
	for s.pos >= t.total && t.fe != nil && t.err == nil {
		t.produce()
	}
	s.chunks = t.chunks
	s.total = t.total
	s.measured = t.measured
	s.haveMeasured = t.haveMeasured
	t.mu.Unlock()
	return s.pos < s.total || (s.haveMeasured && !s.sentEnd && s.pos == s.measured)
}

// mixDomain is the per-domain front-end description shared by every lane.
type mixDomain struct {
	spec sim.DomainSpec // Stream/Pressure drive the front-end; Name/CPU the lanes
	key  tracecache.Key
}

// mixMonitorConfig is the monitor configuration every dynamic lane of this
// mix uses — scheme-independent by construction (sim.Scaled varies only
// SchemeConfig across kinds), which is what lets one recorder serve them
// all and one cached mask vector serve every warm run with the same
// geometry. Window/Buckets are irrelevant to HitMask but keep New happy.
func mixMonitorConfig(opts Options, scale float64) monitor.Config {
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), scale)
	sizes := geom.Sizes
	if opts.WayPartitioned {
		sizes = geom.WaySizes()
	}
	return monitor.Config{
		Sizes:      sizes,
		Ways:       geom.LLCWays,
		Window:     geom.MonitorWindow,
		SampleLog2: geom.MonitorSampleLog2,
	}
}

// runMixFused is RunMixContext's fused path. ok=false means the mix is
// ineligible (tape over the memory budget) and the caller should run the
// per-scheme oracle; it is only returned before any lane has emitted
// telemetry, or when no sinks are attached, so falling back never
// duplicates events. Errors from the sentinel conditions above are
// retryable: the recovery (cold regeneration, oracle fallback) engages on
// the next attempt.
func runMixFused(ctx context.Context, mix workload.Mix, opts Options) (*MixResult, bool, error) {
	scale := opts.scale()
	if mixScaleOverBudget(scale) {
		return nil, false, nil
	}
	st := FrontEndCache()
	annotated := !opts.DisableAnnotations
	// The L1 geometry every lane uses (scheme-independent, never scaled).
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), scale)
	monCfg := mixMonitorConfig(opts, scale)

	specs, err := BuildDomains(mix, scale, opts.Secret)
	if err != nil {
		return nil, false, err
	}
	domains := make([]mixDomain, len(specs))
	for i, spec := range specs {
		domains[i] = mixDomain{
			spec: spec,
			key:  mixStreamKey(mix.Pairs[i], i, scale, opts.Secret, annotated, geom.L1Bytes, geom.L1Ways, monCfg),
		}
	}

	// With telemetry or metrics sinks attached, a discarded attempt has
	// already emitted into them; recovery then needs fresh sinks, so it is
	// surfaced as a retryable error instead of restarting in place.
	canRestart := opts.TracerFor == nil && opts.MetricsFor == nil

	forceCold := make([]bool, len(domains))
	for attempt := 0; ; attempt++ {
		res, retry, ok, err := runMixFusedOnce(ctx, mix, opts, domains, forceCold, st, specs, scale, monCfg)
		if err != nil || !ok || !retry {
			return res, ok, err
		}
		// retry: underrun entries were removed and their domains forced
		// cold; rebuild the consumed front-end streams and go again.
		if !canRestart {
			return nil, true, errMixReplayUnderrun
		}
		if attempt >= mixFusionMaxRestarts {
			return nil, true, fmt.Errorf("experiments: mix %d fused replay did not converge after %d regenerations", mix.ID, attempt)
		}
		if specs, err = BuildDomains(mix, scale, opts.Secret); err != nil {
			return nil, false, err
		}
	}
}

// runMixFusedOnce runs one fused attempt. retry=true asks the caller to
// regenerate (underrun entries already removed, forceCold updated);
// ok=false routes to the oracle.
func runMixFusedOnce(ctx context.Context, mix workload.Mix, opts Options, domains []mixDomain, forceCold []bool, st *tracecache.Store, specs []sim.DomainSpec, scale float64, monCfg monitor.Config) (*MixResult, bool, bool, error) {
	budget := &atomic.Int64{}
	tapes := make([]*mixTape, len(domains))
	for i := range domains {
		t, ok, err := openMixTape(ctx, st, domains[i].key, budget, forceCold[i], scale)
		if err != nil {
			return nil, false, false, err
		}
		if !ok {
			return nil, false, false, nil // over budget: oracle
		}
		// A warm tape decodes with its masks; only a cold front end needs
		// the recorder's shadow arrays.
		if t == nil {
			rec, err := monitor.New(monCfg)
			if err != nil {
				return nil, false, false, err
			}
			t = &mixTape{cold: true, fe: &mixFrontEnd{
				ctx:       ctx,
				measured:  isa.NewChunks(specs[i].Stream, laneChunk),
				pressure:  isa.NewChunks(specs[i].Pressure, laneChunk),
				rec:       rec,
				offset:    sim.DomainAddrOffset(i),
				annotated: !opts.DisableAnnotations,
				budget:    budget,
			}}
			geom := cache.Config{SizeBytes: domains[i].key.L1Bytes, Ways: domains[i].key.L1Ways}
			if t.fe.l1, err = cache.New(geom); err != nil {
				return nil, false, false, err
			}
			if t.fe.monL1, err = cache.New(geom); err != nil {
				return nil, false, false, err
			}
		}
		tapes[i] = t
	}

	res := &MixResult{Mix: mix, Scale: scale, PerScheme: map[partition.Kind]*sim.Result{}}
	kinds := opts.kinds()
	sources := make([][]*mixSource, len(kinds))
	for i := range kinds {
		sources[i] = make([]*mixSource, len(domains))
		for d, t := range tapes {
			sources[i][d] = &mixSource{t: t}
		}
	}
	results, err := parallel.Map(ctx, len(kinds), opts.Jobs, func(_ context.Context, i int) (*sim.Result, error) {
		kind := kinds[i]
		scheme := partition.DefaultScheme(kind)
		scheme.Annotated = !opts.DisableAnnotations
		cfg := sim.Scaled(scheme, res.Scale)
		cfg.OptimizeMaintain = !opts.WorstCaseAccounting
		cfg.Budget = opts.Budget
		if opts.WayPartitioned {
			cfg.WayPartitioned = true
			cfg.Sizes = cfg.WaySizes()
		}
		if opts.SimSeed != 0 {
			cfg.Seed = opts.SimSeed
		}
		if opts.TracerFor != nil {
			cfg.Tracer = opts.TracerFor(kind)
		}
		if opts.MetricsFor != nil {
			cfg.Metrics = opts.MetricsFor(kind)
		}
		laneSpecs := make([]sim.DomainSpec, len(domains))
		for d := range domains {
			laneSpecs[d] = sim.DomainSpec{
				Name:   domains[d].spec.Name,
				Replay: sources[i][d],
				CPU:    domains[d].spec.CPU,
			}
		}
		s, err := sim.New(cfg, laneSpecs)
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		r, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("mix %d, %v: %w", mix.ID, kind, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, false, false, err
	}
	// A failed front-end poisons every lane that fed from it; surface the
	// cause rather than the garbage results.
	for _, t := range tapes {
		if t.err == nil {
			continue
		}
		if errors.Is(t.err, errMixOverBudget) {
			noteMixOverBudget(scale)
			if opts.TracerFor == nil && opts.MetricsFor == nil {
				return nil, false, false, nil // oracle, silently
			}
			return nil, false, false, t.err // retry lands on the oracle via the scale note
		}
		return nil, false, false, t.err
	}
	// An underrun lane idled out on a short cached pressure tail: its
	// timing no longer matches the oracle. Remove the short entries and
	// regenerate those domains cold.
	consumed := make([]int, len(domains))
	retry := false
	for d := range tapes {
		for i := range kinds {
			src := sources[i][d]
			if src.pos > consumed[d] {
				consumed[d] = src.pos
			}
			if src.underrun {
				retry = true
				forceCold[d] = true
			}
		}
	}
	if retry {
		for d, t := range tapes {
			if forceCold[d] && !t.cold && st != nil {
				unlock := st.Lock(domains[d].key)
				os.Remove(st.EntryPath(domains[d].key))
				unlock()
			}
		}
		return nil, true, true, nil
	}
	// Success: persist the cold tapes, with a pressure tail sized to the
	// hungriest lane plus slack so same-options warm runs never underrun.
	if st != nil {
		for d, t := range tapes {
			if !t.cold {
				continue
			}
			if err := persistMixTape(st, domains[d].key, t, consumed[d]); err != nil {
				return nil, false, false, err
			}
		}
	}
	for i, kind := range kinds {
		res.PerScheme[kind] = results[i]
	}
	return res, false, true, nil
}

// openMixTape loads a domain's sealed tape from the cache. Returns
// (nil, true, nil) on a miss or when forceCold — the caller generates.
// ok=false means the entry outgrew the replay budget (detected before any
// lane ran, so the oracle fallback is always clean).
func openMixTape(ctx context.Context, st *tracecache.Store, key tracecache.Key, budget *atomic.Int64, forceCold bool, scale float64) (*mixTape, bool, error) {
	if st == nil || forceCold {
		return nil, true, nil
	}
	unlock := st.Lock(key)
	defer unlock()
	r, err := st.Open(key)
	if err != nil {
		return nil, false, err
	}
	if r == nil {
		return nil, true, nil
	}
	defer r.Close()
	if !r.Rich() {
		if st.RebuildEnabled() {
			st.NoteRebuild()
			return nil, true, nil
		}
		return nil, false, fmt.Errorf("%w: %s is not a rich mix entry (key %s) — delete it or rerun with -fe-cache-rebuild",
			tracecache.ErrKeyMismatch, st.EntryPath(key), key)
	}
	t, err := decodeMixTape(ctx, r, budget)
	if err != nil {
		if errors.Is(err, errMixOverBudget) {
			noteMixOverBudget(scale)
			return nil, false, nil
		}
		if errors.Is(err, tracecache.ErrCorrupt) && st.RebuildEnabled() {
			st.NoteRebuild()
			return nil, true, nil
		}
		return nil, false, err
	}
	return t, true, nil
}

// decodeMixTape decodes a rich entry into a sealed tape, splitting at the
// measured-end marker. The per-batch checkpoint keeps the warm path's
// cancellation and fault cadence aligned with the cold path's.
func decodeMixTape(ctx context.Context, r *tracecache.Reader, budget *atomic.Int64) (*mixTape, error) {
	t := &mixTape{}
	buf := make([]feEvent, laneChunk)
	for {
		if err := mixCheckpoint(ctx); err != nil {
			return nil, err
		}
		n, err := r.Read(buf)
		seg := buf[:n]
		for len(seg) > 0 {
			cut := len(seg)
			marker := false
			for i, ev := range seg {
				if ev.Kind == tracecache.KindMeasuredEnd {
					cut, marker = i, true
					break
				}
			}
			if cut > 0 {
				chunk := make([]feEvent, cut)
				copy(chunk, seg[:cut])
				t.chunks = append(t.chunks, chunk)
				t.total += cut
				if budget.Add(int64(cut)) > mixReplayEventBudget {
					return nil, errMixOverBudget
				}
			}
			if marker {
				if t.haveMeasured {
					return nil, fmt.Errorf("%w: second measured-end marker", tracecache.ErrCorrupt)
				}
				t.measured = t.total
				t.haveMeasured = true
				cut++
			}
			seg = seg[cut:]
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if !t.haveMeasured {
		return nil, fmt.Errorf("%w: no measured-end marker", tracecache.ErrCorrupt)
	}
	return t, nil
}

// persistMixTape writes a cold tape to the cache: measured events, the
// marker, then the pressure tail extended to consumed + 1/8 slack (clamped
// by the budget — a truncated tail only means a future underrun rebuild).
func persistMixTape(st *tracecache.Store, key tracecache.Key, t *mixTape, consumed int) error {
	target := consumed + consumed/8 + laneChunk
	t.mu.Lock()
	for t.total < target && t.fe != nil && t.err == nil {
		t.produce()
	}
	err := t.err
	t.mu.Unlock()
	if err != nil && !errors.Is(err, errMixOverBudget) {
		return err
	}
	unlock := st.Lock(key)
	defer unlock()
	w, err := st.CreateRich(key)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := writeMixTape(w, t); err != nil {
		return err
	}
	return w.Commit()
}

// writeMixTape streams a tape's chunks into a rich writer, inserting the
// measured-end marker at the recorded boundary.
func writeMixTape(w *tracecache.Writer, t *mixTape) error {
	marker := []feEvent{{Kind: tracecache.KindMeasuredEnd}}
	pos := 0
	markerDone := false
	for _, chunk := range t.chunks {
		if !markerDone && t.haveMeasured && t.measured >= pos && t.measured <= pos+len(chunk) {
			cut := t.measured - pos
			if cut > 0 {
				if err := w.WriteEvents(chunk[:cut]); err != nil {
					return err
				}
			}
			if err := w.WriteEvents(marker); err != nil {
				return err
			}
			if cut < len(chunk) {
				if err := w.WriteEvents(chunk[cut:]); err != nil {
					return err
				}
			}
			markerDone = true
		} else if err := w.WriteEvents(chunk); err != nil {
			return err
		}
		pos += len(chunk)
	}
	if !markerDone {
		return w.WriteEvents(marker)
	}
	return nil
}
