package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"untangle/internal/monitor"
	"untangle/internal/partition"
	"untangle/internal/sim"
	"untangle/internal/telemetry"
	"untangle/internal/tracecache"
	"untangle/internal/workload"
)

// fusionTestScale keeps the 16-mix sweep affordable; the fused/oracle
// equivalence is scale-independent (the two paths execute the same
// operations in the same order at any scale).
const fusionTestScale = 0.0002

// requireMixBitwiseEqual asserts two mix results are bitwise identical:
// reflect.DeepEqual compares every float by value (IPCs, cycle counts,
// leakage, sample timelines), which is bit equality for the finite values
// these runs produce.
func requireMixBitwiseEqual(t *testing.T, label string, got, want *MixResult) {
	t.Helper()
	if math.Float64bits(got.Scale) != math.Float64bits(want.Scale) {
		t.Fatalf("%s: scale %v != %v", label, got.Scale, want.Scale)
	}
	if len(got.PerScheme) != len(want.PerScheme) {
		t.Fatalf("%s: %d schemes, want %d", label, len(got.PerScheme), len(want.PerScheme))
	}
	for kind, w := range want.PerScheme {
		g := got.PerScheme[kind]
		if g == nil {
			t.Fatalf("%s: scheme %v missing", label, kind)
		}
		if reflect.DeepEqual(g, w) {
			continue
		}
		for d := range w.Domains {
			if !reflect.DeepEqual(g.Domains[d], w.Domains[d]) {
				t.Errorf("%s: %v domain %d (%s) differs:\n  got  instr=%d cycles=%v finish=%v L1=%+v LLC=%+v leak=%+v\n  want instr=%d cycles=%v finish=%v L1=%+v LLC=%+v leak=%+v",
					label, kind, d, w.Domains[d].Name,
					g.Domains[d].Instructions, g.Domains[d].Cycles, g.Domains[d].FinishTime,
					g.Domains[d].L1, g.Domains[d].LLC, g.Domains[d].Leakage,
					w.Domains[d].Instructions, w.Domains[d].Cycles, w.Domains[d].FinishTime,
					w.Domains[d].L1, w.Domains[d].LLC, w.Domains[d].Leakage)
			}
		}
		t.Fatalf("%s: scheme %v differs", label, kind)
	}
}

// mixBuffers builds one telemetry buffer per scheme plus the TracerFor
// wiring runMixUnit uses, so the test sees exactly the event streams the
// campaign driver would serialize.
func mixBuffers(id int) (map[partition.Kind]*telemetry.Buffer, func(partition.Kind) *telemetry.Tracer) {
	bufs := map[partition.Kind]*telemetry.Buffer{}
	for _, k := range (Options{}).kinds() {
		bufs[k] = telemetry.NewBuffer()
	}
	return bufs, func(k partition.Kind) *telemetry.Tracer {
		return telemetry.New(bufs[k], nil, fmt.Sprintf("mix%d/%s", id, k))
	}
}

// requireBuffersEqual asserts the serialized telemetry is byte-identical.
func requireBuffersEqual(t *testing.T, label string, got, want map[partition.Kind]*telemetry.Buffer) {
	t.Helper()
	for k, wb := range want {
		var gj, wj bytes.Buffer
		if err := got[k].WriteJSONL(&gj); err != nil {
			t.Fatal(err)
		}
		if err := wb.WriteJSONL(&wj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj.Bytes(), wj.Bytes()) {
			t.Errorf("%s: telemetry for %v differs (%d vs %d events)", label, k, got[k].Len(), wb.Len())
		}
	}
}

func fusionTestMixes(t *testing.T) []int {
	if testing.Short() {
		return []int{1, 2}
	}
	ids := make([]int, 0, len(workload.Mixes))
	for _, m := range workload.Mixes {
		ids = append(ids, m.ID)
	}
	return ids
}

// TestMixFusionMatchesOracle is the PR's central acceptance test: the
// fused mix engine (one front-end pass teed into four scheme lanes)
// reproduces the per-scheme oracle bitwise — IPCs, leakage accounting,
// partition traces, sample timelines, telemetry — for every mix, both
// cold and replaying from a warm front-end cache.
func TestMixFusionMatchesOracle(t *testing.T) {
	ids := fusionTestMixes(t)

	t.Run("cold", func(t *testing.T) {
		for _, id := range ids {
			id := id
			t.Run(fmt.Sprintf("mix%d", id), func(t *testing.T) {
				t.Parallel()
				mix, err := workload.MixByID(id)
				if err != nil {
					t.Fatal(err)
				}
				oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
				if err != nil {
					t.Fatal(err)
				}
				fused, err := RunMix(mix, Options{Scale: fusionTestScale})
				if err != nil {
					t.Fatal(err)
				}
				requireMixBitwiseEqual(t, "fused-cold", fused, oracle)
			})
		}
	})

	// The warm phase owns the process-global front-end cache, so it runs
	// after the parallel cold group and keeps its mixes sequential.
	t.Run("warm", func(t *testing.T) {
		st := newTestStore(t, false)
		SetFrontEndCache(st)
		defer SetFrontEndCache(nil)
		warmIDs := ids
		if len(warmIDs) > 2 {
			warmIDs = warmIDs[:2]
		}
		for _, id := range warmIDs {
			mix, err := workload.MixByID(id)
			if err != nil {
				t.Fatal(err)
			}
			oBufs, oTracers := mixBuffers(id)
			oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true, TracerFor: oTracers})
			if err != nil {
				t.Fatal(err)
			}

			cBufs, cTracers := mixBuffers(id)
			cold, err := RunMix(mix, Options{Scale: fusionTestScale, TracerFor: cTracers})
			if err != nil {
				t.Fatal(err)
			}
			requireMixBitwiseEqual(t, "fused-populate", cold, oracle)
			requireBuffersEqual(t, "fused-populate", cBufs, oBufs)

			before := st.Counters()
			wBufs, wTracers := mixBuffers(id)
			warm, err := RunMix(mix, Options{Scale: fusionTestScale, TracerFor: wTracers})
			if err != nil {
				t.Fatal(err)
			}
			requireMixBitwiseEqual(t, "fused-warm", warm, oracle)
			requireBuffersEqual(t, "fused-warm", wBufs, oBufs)
			after := st.Counters()
			if hits := after.Hits - before.Hits; hits < int64(len(mix.Pairs)) {
				t.Errorf("mix %d warm run hit the cache %d times, want >= %d", id, hits, len(mix.Pairs))
			}
		}
	})
}

// TestMixFusionUnderrunRegenerates covers the one stored quantity whose
// needed length is scheme-dependent: the pressure tail. A cached entry
// whose tail is too short for the lanes must be detected, deleted, and
// regenerated cold — still matching the oracle bitwise — and the rewritten
// entry must carry a full tail again.
func TestMixFusionUnderrunRegenerates(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}

	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	cold, err := RunMix(mix, Options{Scale: fusionTestScale})
	if err != nil {
		t.Fatal(err)
	}
	requireMixBitwiseEqual(t, "populate", cold, oracle)

	// Truncate domain 0's entry to measured stream + marker, no tail.
	key := mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8, mixMonitorConfig(Options{}, fusionTestScale))
	path := st.EntryPath(key)
	r, err := st.Open(key)
	if err != nil || r == nil {
		t.Fatalf("open %s: r=%v err=%v", path, r, err)
	}
	var events []tracecache.Event
	buf := make([]tracecache.Event, 4096)
	for {
		n, rerr := r.Read(buf)
		events = append(events, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	r.Close()
	cut := -1
	for i, ev := range events {
		if ev.Kind == tracecache.KindMeasuredEnd {
			cut = i
			break
		}
	}
	if cut < 0 || cut == len(events)-1 {
		t.Fatalf("entry has no marker or no tail (marker at %d of %d)", cut, len(events))
	}
	w, err := st.CreateRich(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvents(events[:cut+1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	warm, err := RunMix(mix, Options{Scale: fusionTestScale})
	if err != nil {
		t.Fatal(err)
	}
	requireMixBitwiseEqual(t, "underrun-regenerated", warm, oracle)

	info, err := tracecache.ReadInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if tail := info.Events - info.Measured - 1; tail == 0 {
		t.Errorf("regenerated entry still has no pressure tail (%d events, %d measured)", info.Events, info.Measured)
	}
}

// TestMixFusionOracleFlagForcesOracle pins the escape hatch: DisableFusion
// must leave the cache untouched.
func TestMixFusionOracleFlagForcesOracle(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	if _, err := RunMix(mix, Options{Scale: fusionTestScale, DisableFusion: true, Kinds: []partition.Kind{partition.Static}}); err != nil {
		t.Fatal(err)
	}
	c := st.Counters()
	if c.Hits != 0 || c.Misses != 0 || c.BytesWritten != 0 {
		t.Errorf("oracle path touched the cache: %+v", c)
	}
}

// annotateMonMasks is the shadow-array oracle for the persisted masks: it
// replays a tape's observed accesses through a fresh recorder and
// overwrites each FlagMonObserve event's MonMask with the recomputed hit
// vector. Before rich entries stored the masks, every warm run did this.
func annotateMonMasks(t *mixTape, rec *monitor.Monitor) {
	for _, chunk := range t.chunks {
		for j := range chunk {
			if chunk[j].Flags&tracecache.FlagMonObserve != 0 {
				chunk[j].MonMask = rec.HitMask(chunk[j].Addr, chunk[j].Flags&tracecache.FlagWrite != 0)
			}
		}
	}
}

// TestWarmMixMasksMatchRecomputation: every mask a warm run decodes from a
// rich entry equals the shadow-array recomputation under the monitor
// geometry the entry was keyed with, for the default and the
// way-partitioned geometry. A way-partitioned run must not reuse the
// default run's entries: their masks answer different candidate sizes.
func TestWarmMixMasksMatchRecomputation(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	SetFrontEndCache(st)
	defer SetFrontEndCache(nil)
	geom := sim.Scaled(partition.DefaultScheme(partition.Static), fusionTestScale)
	for _, opts := range []Options{{Scale: fusionTestScale}, {Scale: fusionTestScale, WayPartitioned: true}} {
		label := fmt.Sprintf("way-partitioned=%v", opts.WayPartitioned)
		before := st.Counters()
		if _, err := RunMix(mix, opts); err != nil {
			t.Fatal(err)
		}
		if misses := st.Counters().Misses - before.Misses; misses != int64(len(mix.Pairs)) {
			t.Fatalf("%s: populate missed %d times, want %d (entries shared across monitor geometries?)", label, misses, len(mix.Pairs))
		}
		monCfg := mixMonitorConfig(opts, fusionTestScale)
		observed, nonzero := 0, 0
		for d, pair := range mix.Pairs {
			key := mixStreamKey(pair, d, fusionTestScale, 0, true, geom.L1Bytes, geom.L1Ways, monCfg)
			r, err := st.Open(key)
			if err != nil || r == nil {
				t.Fatalf("%s: open domain %d: r=%v err=%v", label, d, r, err)
			}
			tape, err := decodeMixTape(context.Background(), r, &atomic.Int64{})
			r.Close()
			if err != nil {
				t.Fatal(err)
			}
			var stored []uint16
			for _, chunk := range tape.chunks {
				for _, ev := range chunk {
					stored = append(stored, ev.MonMask)
				}
			}
			rec, err := monitor.New(monCfg)
			if err != nil {
				t.Fatal(err)
			}
			annotateMonMasks(tape, rec)
			i := 0
			for _, chunk := range tape.chunks {
				for _, ev := range chunk {
					if ev.MonMask != stored[i] {
						t.Fatalf("%s: domain %d event %d: stored mask %#x, recomputed %#x", label, d, i, stored[i], ev.MonMask)
					}
					if ev.Flags&tracecache.FlagMonObserve != 0 {
						observed++
						if ev.MonMask != 0 {
							nonzero++
						}
					}
					i++
				}
			}
		}
		if nonzero == 0 {
			t.Fatalf("%s: no nonzero mask among %d observed accesses; the check compared nothing", label, observed)
		}
	}
}

// TestMixStreamKeyMonitorGeometry: the mix key, and with it the entry's
// file, depends on the monitor geometry the masks were resolved under.
func TestMixStreamKeyMonitorGeometry(t *testing.T) {
	mix, err := workload.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, false)
	key := func(opts Options) tracecache.Key {
		return mixStreamKey(mix.Pairs[0], 0, fusionTestScale, 0, true, 32<<10, 8, mixMonitorConfig(opts, fusionTestScale))
	}
	def, way := key(Options{}), key(Options{WayPartitioned: true})
	if def == way {
		t.Fatalf("default and way-partitioned keys are equal: %s", def)
	}
	if def.Monitor == way.Monitor {
		t.Errorf("monitor geometry not in the key: %q", def.Monitor)
	}
	if st.EntryPath(def) == st.EntryPath(way) {
		t.Errorf("default and way-partitioned keys share the file %s", st.EntryPath(def))
	}
	if def != key(Options{}) {
		t.Error("mix key is not deterministic")
	}
}
