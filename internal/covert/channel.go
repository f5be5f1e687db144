// Package covert implements the covert-channel model of Section 5.3.3 of the
// Untangle paper and the maximum-data-rate computation of Appendix A.
//
// The model: information is encoded as the time a victim spends in an
// observable state (a partition size). The sender picks an input symbol x,
// represented by a duration d_x measured in integer time units; the cooldown
// mechanism (Mechanism 1) forces d_x >= Tc. The resizing action that ends the
// duration is delayed by a random δ drawn from a known distribution
// (Mechanism 2), so the receiver observes
//
//	d_y = d_x + δ_i - δ_{i-1}                     (Equation 5.8)
//
// The per-transmission information is bounded by H(Y) - H(δ) (Equation A.10)
// and the channel's data rate by
//
//	R'max = max_{p(x)} (H(Y) - H(δ)) / Tavg       (Problem A.11)
//
// which this package solves with Dinkelbach's transform (Appendix A), using a
// pure-Go exponentiated-gradient concave maximizer in place of the paper's
// PyTorch Adam optimizer.
package covert

import (
	"errors"
	"fmt"
	"math"

	"untangle/internal/info"
)

// Channel is a fully-specified covert channel: a set of candidate input
// durations and the random-delay distribution.
type Channel struct {
	// Durations holds d_x for every input symbol, in integer time units,
	// strictly increasing. Mechanism 1 requires Durations[0] >= cooldown.
	Durations []int
	// Noise is the distribution of the random delay δ over offsets
	// 0..len(Noise)-1 time units. A single-point distribution means no
	// random delay (Mechanism 2 disabled).
	Noise info.Dist

	// noiseDiff is p(δ_i - δ_{i-1}), the autocorrelation of Noise, over
	// offsets -(W-1)..W-1 stored at index k+(W-1).
	noiseDiff []float64
	// hNoise is H(δ) in bits.
	hNoise float64
}

// NewChannel validates and precomputes a channel.
func NewChannel(durations []int, noise info.Dist) (*Channel, error) {
	if len(durations) == 0 {
		return nil, errors.New("covert: no input durations")
	}
	for i, d := range durations {
		if d <= 0 {
			return nil, fmt.Errorf("covert: duration %d is %d, must be positive", i, d)
		}
		if i > 0 && durations[i] <= durations[i-1] {
			return nil, fmt.Errorf("covert: durations must be strictly increasing (index %d)", i)
		}
	}
	if len(noise) == 0 {
		noise = info.Dist{1}
	}
	if err := noise.Validate(); err != nil {
		return nil, fmt.Errorf("covert: noise: %w", err)
	}
	c := &Channel{
		Durations: append([]int(nil), durations...),
		Noise:     noise.Clone(),
		hNoise:    noise.Entropy(),
	}
	c.noiseDiff = autocorrelate(c.Noise)
	return c, nil
}

// UniformNoise returns a uniform random-delay distribution over width time
// units, the paper's δ ~ U[0, 1ms) configuration at the chosen resolution.
func UniformNoise(width int) info.Dist {
	if width < 1 {
		width = 1
	}
	return info.NewUniform(width)
}

// autocorrelate returns p(δ_i - δ_{i-1}) for IID δ: the cross-correlation of
// the noise distribution with itself, indexed k + (W-1) for k in
// [-(W-1), W-1]. For uniform noise this is the triangular distribution.
func autocorrelate(noise info.Dist) []float64 {
	w := len(noise)
	out := make([]float64, 2*w-1)
	for i, pi := range noise {
		if pi == 0 {
			continue
		}
		for j, pj := range noise {
			out[i-j+w-1] += pi * pj
		}
	}
	return out
}

// NoiseEntropy returns H(δ) in bits.
func (c *Channel) NoiseEntropy() float64 { return c.hNoise }

// outputSpan returns the inclusive range [lo, hi] of possible observed
// durations d_y.
func (c *Channel) outputSpan() (lo, hi int) {
	w := len(c.Noise)
	return c.Durations[0] - (w - 1), c.Durations[len(c.Durations)-1] + (w - 1)
}

// OutputDist computes p(y) for the given input distribution: the mixture of
// the noise-difference kernel shifted to each input duration. The returned
// slice is indexed by y - lo where lo is the smallest possible output.
func (c *Channel) OutputDist(px info.Dist) info.Dist {
	lo, hi := c.outputSpan()
	py := make(info.Dist, hi-lo+1)
	c.outputDistInto(py, px)
	return py
}

// outputDistInto accumulates OutputDist(px) into py, which must be zeroed
// and span the outputs. Each p(y) sums its inputs in ascending x order.
func (c *Channel) outputDistInto(py []float64, px info.Dist) {
	kern := c.noiseDiff
	d0 := c.Durations[0]
	durations := c.Durations[:len(px)]
	for x, p := range px {
		if p == 0 {
			continue
		}
		// The kernel for input x starts at output d_x - (W-1), which is
		// index d_x - d_0 of the span.
		dst := py[durations[x]-d0:]
		dst = dst[:len(kern)]
		for k, q := range kern {
			if q > 0 {
				dst[k] += p * q
			}
		}
	}
}

// InfoPerTransmission returns the conservative per-transmission information
// bound H(Y) - H(δ) of Equation A.10, in bits, for input distribution px.
func (c *Channel) InfoPerTransmission(px info.Dist) float64 {
	v := c.OutputDist(px).Entropy() - c.hNoise
	if v < 0 {
		// H(Y) >= H(δ_i - δ_{i-1}) >= H(δ) for every input distribution, so
		// the bound is non-negative; clamp floating-point rounding residue.
		v = 0
	}
	return v
}

// AvgTime returns Tavg = sum p(x) d_x (Equation 5.7), in time units.
func (c *Channel) AvgTime(px info.Dist) float64 {
	t := 0.0
	for x, p := range px {
		t += p * float64(c.Durations[x])
	}
	return t
}

// Rate returns the data-rate bound (H(Y)-H(δ))/Tavg in bits per time unit
// for input distribution px (the objective of Problem A.11).
func (c *Channel) Rate(px info.Dist) float64 {
	return c.InfoPerTransmission(px) / c.AvgTime(px)
}

// NoiselessRate returns H(X)/Tavg for a channel with no random delay — the
// quantity used in the worked strategy example of Section 5.3.1 (Strategy 1:
// 2 bits / 2.5 ms = 800 bits/s; Strategy 2: 3 bits / 4.5 ms ≈ 667 bits/s).
func NoiselessRate(durations []int, px info.Dist) (bitsPerUnit float64, err error) {
	ch, err := NewChannel(durations, info.Dist{1})
	if err != nil {
		return 0, err
	}
	return ch.Rate(px), nil
}

// gradScratch holds objectiveGrad's per-iteration buffers, allocated once
// per solve so the inner loop allocates nothing.
type gradScratch struct {
	// py is p(y) over the output span.
	py []float64
	// logPy is log2 p(y) + 1/ln 2 over the output span (1/ln 2 alone where
	// p(y) = 0): the per-output factor of the H(Y) gradient.
	logPy []float64
}

func (c *Channel) newGradScratch() *gradScratch {
	lo, hi := c.outputSpan()
	return &gradScratch{py: make([]float64, hi-lo+1), logPy: make([]float64, hi-lo+1)}
}

// objectiveGrad computes the gradient of N(p) - q*D(p) with respect to p,
// where N(p) = H(Y) - H(δ) and D(p) = Tavg. Used by the Dinkelbach inner
// solver. The gradient of H(Y) w.r.t. p(x) is
//
//	-Σ_y k(y - d_x) (log2 p(y) + 1/ln 2)
//
// with k the noise-difference kernel. Four inputs are accumulated at a time
// for instruction-level parallelism, each in its own accumulator summing
// over the kernel in ascending order, so every gradient entry has the bits
// of the one-input-at-a-time loop.
func (c *Channel) objectiveGrad(px info.Dist, q float64, grad []float64, s *gradScratch) {
	py, logPy := s.py, s.logPy[:len(s.py)]
	clear(py)
	c.outputDistInto(py, px)
	const invLn2 = 1 / math.Ln2
	for y, p := range py {
		l := 0.0
		if p > 0 {
			l = math.Log2(p)
		}
		logPy[y] = l + invLn2
	}
	kern := c.noiseDiff
	n := len(kern)
	d0 := c.Durations[0]
	durations := c.Durations[:len(px)]
	grad = grad[:len(px)]
	x := 0
	for ; x+4 <= len(durations); x += 4 {
		l0 := logPy[durations[x]-d0:]
		l0 = l0[:n]
		l1 := logPy[durations[x+1]-d0:]
		l1 = l1[:n]
		l2 := logPy[durations[x+2]-d0:]
		l2 = l2[:n]
		l3 := logPy[durations[x+3]-d0:]
		l3 = l3[:n]
		var g0, g1, g2, g3 float64
		for k, kq := range kern {
			if kq > 0 {
				g0 -= kq * l0[k]
				g1 -= kq * l1[k]
				g2 -= kq * l2[k]
				g3 -= kq * l3[k]
			}
		}
		grad[x] = g0 - q*float64(durations[x])
		grad[x+1] = g1 - q*float64(durations[x+1])
		grad[x+2] = g2 - q*float64(durations[x+2])
		grad[x+3] = g3 - q*float64(durations[x+3])
	}
	for ; x < len(durations); x++ {
		l := logPy[durations[x]-d0:]
		l = l[:n]
		g := 0.0
		for k, kq := range kern {
			if kq > 0 {
				g -= kq * l[k]
			}
		}
		grad[x] = g - q*float64(durations[x])
	}
}

// objective evaluates N(p) - q*D(p).
func (c *Channel) objective(px info.Dist, q float64) float64 {
	return c.InfoPerTransmission(px) - q*c.AvgTime(px)
}
