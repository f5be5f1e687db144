package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python 3.11: statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{7, 7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if q1, m, q3 := quartiles([]float64{4}); q1 != 4 || m != 4 || q3 != 4 {
		t.Errorf("single sample: got %v %v %v", q1, m, q3)
	}
	if _, m, _ := quartiles(nil); !math.IsNaN(m) {
		t.Errorf("empty: median %v, want NaN", m)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		wantOK bool
	}{
		// 1000 samples: p99 = 990 has exactly 10 beyond it; p99.9 only 1.
		{1000, 99, 990, true},
		// 200 samples: p95 = 190 has 10 beyond; p99 = 198 only 2.
		{200, 95, 190, true},
		// 100 samples: p90 = 90 has 10 beyond; p95 only 5.
		{100, 90, 90, true},
		// 40 samples: p75 = 30 has 10 beyond; p90 = 36 only 4.
		{40, 75, 30, true},
		// 36 units (the Figure 11 study): p75 = 27 has 9 beyond, p50 = 18 has 18.
		{36, 50, 18, true},
		// 19 samples: even the median has only 9 beyond it.
		{19, 50, 10, false},
	}
	for _, c := range cases {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.value || ok != c.wantOK {
			t.Errorf("tail(1..%d) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.value, c.wantOK)
		}
	}
	// Ties at the percentile do not count as beyond it.
	xs := append(seq(9), 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10)
	if pct, v, ok := tail(xs); ok || pct != 50 || v != 10 {
		t.Errorf("tied tail: p%v %v %v, want p50 10 false", pct, v, ok)
	}
}

func TestSelfTimeOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Two overlapping children cover [10, 60) together: 50, not 70.
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 20, End: 60},
		// A disjoint child adds [80, 90).
		{ID: 4, Parent: 1, Start: 80, End: 90},
		// A child sticking out of its parent counts only inside it.
		{ID: 5, Parent: 1, Start: 95, End: 120},
		// A grandchild nested in span 2 does not reduce span 1 again.
		{ID: 6, Parent: 2, Start: 15, End: 45},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10 - 5, 2: 40 - 30, 3: 40, 4: 10, 5: 25, 6: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestAttributedFracOnSyntheticSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 2000},
		// Layer "gen": two chunks, 300 ns each for 100 events each, one of
		// which has a nested 100 ns child that is not gen's own time.
		{ID: 2, Parent: 1, Name: "gen", Start: 0, End: 300, Events: 100},
		{ID: 3, Parent: 1, Name: "gen", Start: 300, End: 600, Events: 100},
		{ID: 4, Parent: 3, Name: "inner", Start: 400, End: 500},
		// Layer "lane": 400 ns for 50 events.
		{ID: 5, Parent: 1, Name: "lane", Start: 600, End: 1000, Events: 50},
	}
	self := selfTimes(spans)
	gen := layerNsPerEvent(spans, self, "gen")
	lane := layerNsPerEvent(spans, self, "lane")
	if !near(gen, 2.5) || !near(lane, 8) {
		t.Fatalf("ns/event gen %v lane %v, want 2.5 and 8", gen, lane)
	}
	if got := layerNsPerEvent(spans, self, "missing"); got != 0 {
		t.Errorf("layer without spans: %v, want 0", got)
	}
	// A workload doing 1e8 gen events and 1e7 lane events in 0.5 CPU
	// seconds: (2.5*1e8 + 8*1e7) ns = 0.33 s, so 66% is attributed.
	frac := attributedFrac([]layerCost{
		{Name: "gen", NsPerEvent: gen, Events: 1e8},
		{Name: "lane", NsPerEvent: lane, Events: 1e7},
	}, 0.5)
	if !near(frac, 0.66) {
		t.Errorf("attributed frac %v, want 0.66", frac)
	}
	if attributedFrac(nil, 0) != 0 {
		t.Error("zero CPU seconds must attribute nothing")
	}
}

func TestWeightedNs(t *testing.T) {
	lane := layerCost{Name: "lane", NsPerEvent: 10, Events: 3e6}
	part := layerCost{Name: "part", NsPerEvent: 50, Events: 1e6}
	if got := weightedNs([]layerCost{lane, part}); !near(got, 20) {
		t.Errorf("weighted by events: %v, want 20", got)
	}
	// No events in the run: the first cost that was measured.
	lane.Events, part.Events = 0, 0
	if got := weightedNs([]layerCost{{Name: "unmeasured"}, part, lane}); got != 50 {
		t.Errorf("without events: %v, want 50", got)
	}
	if got := weightedNs(nil); got != 0 {
		t.Errorf("no layers: %v, want 0", got)
	}
}
