package main

import (
	"math"
	"sort"
)

// summary is a timing distribution as the benchmark reports it: median,
// quartiles and the sample count.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{N: len(xs), Median: med, Q1: q1, Q3: q3}
}

// quartiles returns the first quartile, the median and the third quartile
// of xs with the interpolation Python's statistics.quantiles(xs, n=4) uses
// by default (method "exclusive"), so the spreads printed here match the
// ones computed over the benchmark's JSON results. A single sample is its
// own quartiles; an empty slice gives NaN.
func quartiles(xs []float64) (q1, median, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], medianOf(d), q[2]
}

// medianOf is statistics.median: the middle value, or the mean of the two
// middle values.
func medianOf(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return math.NaN()
	}
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailMinBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the percentile is one or two samples' noise.
const tailMinBeyond = 10

// tail returns the highest percentile of tailLadder that has at least
// tailMinBeyond samples strictly above it, with that percentile's value
// (nearest rank). ok is false when even the median has fewer samples beyond
// it; the median is then returned so callers still have a number to print.
func tail(xs []float64) (pct, value float64, ok bool) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 50, math.NaN(), false
	}
	for _, p := range tailLadder {
		v := nearestRank(d, p)
		beyond := len(d) - sort.Search(len(d), func(i int) bool { return d[i] > v })
		if beyond >= tailMinBeyond {
			return p, v, true
		}
	}
	return 50, nearestRank(d, 50), false
}

// nearestRank is the p-th percentile of sorted d by the nearest-rank rule.
func nearestRank(d []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	rank = max(1, min(rank, len(d)))
	return d[rank-1]
}

// span is one timed interval of the traced run. Parent is 0 for a root.
// Events is the number of layer events the span covered, when it times a
// layer call; Run groups the spans of one run of the workload.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int64  `json:"events,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Overlapping children (two
// workers under one parent) count their union once, and a child's own
// children never add to what the child already covers.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// layerCost is one layer's measured self time per event and how many of
// those events a run of the workload performs.
type layerCost struct {
	Name       string
	NsPerEvent float64
	Events     float64
}

// layerNsPerEvent sums the self time and events of every span named name
// and returns nanoseconds per event (0 when the spans covered no events).
func layerNsPerEvent(spans []span, self map[int64]int64, name string) float64 {
	var ns, events int64
	for _, s := range spans {
		if s.Name == name {
			ns += self[s.ID]
			events += s.Events
		}
	}
	if events == 0 {
		return 0
	}
	return float64(ns) / float64(events)
}

// attributedFrac is the share of a run's CPU time that the layers explain:
// the sum over layers of self time per event times the run's event count,
// divided by the run's CPU seconds.
func attributedFrac(layers []layerCost, cpuSeconds float64) float64 {
	if cpuSeconds <= 0 {
		return 0
	}
	var ns float64
	for _, l := range layers {
		ns += l.NsPerEvent * l.Events
	}
	return ns / 1e9 / cpuSeconds
}

// weightedNs is the mean cost per event over layers that serve the same
// calls on different structures, weighted by the run's event counts. When
// the run makes none of these calls, it is the first measured cost.
func weightedNs(layers []layerCost) float64 {
	var ns, events float64
	for _, l := range layers {
		ns += l.NsPerEvent * l.Events
		events += l.Events
	}
	if events > 0 {
		return ns / events
	}
	for _, l := range layers {
		if l.NsPerEvent > 0 {
			return l.NsPerEvent
		}
	}
	return 0
}
