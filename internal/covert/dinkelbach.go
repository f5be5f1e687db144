package covert

import (
	"math"

	"untangle/internal/info"
)

// SolverConfig controls the Dinkelbach iteration of Appendix A and the inner
// concave maximizer.
type SolverConfig struct {
	// MaxDinkelbachRounds bounds the number of outer q updates.
	MaxDinkelbachRounds int
	// Tolerance ε: the outer loop stops once F(q_i) < ε.
	Tolerance float64
	// InnerIterations is the number of exponentiated-gradient steps used to
	// solve each helper problem F(q) = max_p { N(p) - q D(p) }.
	InnerIterations int
	// InnerStep is the mirror-descent step size.
	InnerStep float64
	// UpperBoundSlack is the initial δ added to q_n when guessing the upper
	// bound q' = q_n + δ; it doubles until F(q') <= 0 is verified.
	UpperBoundSlack float64
	// VerifyIterations is the iteration budget used to verify F(q') <= 0
	// (the paper uses 10,000 Adam iterations).
	VerifyIterations int
}

// DefaultSolverConfig returns parameters that converge on every channel used
// in the evaluation while keeping table precomputation fast.
func DefaultSolverConfig() SolverConfig {
	return SolverConfig{
		MaxDinkelbachRounds: 12,
		Tolerance:           1e-6,
		InnerIterations:     400,
		InnerStep:           0.25,
		UpperBoundSlack:     1e-4,
		VerifyIterations:    1200,
	}
}

// Result describes the outcome of the Rmax computation for one channel.
type Result struct {
	// Rate is the converged data-rate bound R'max in bits per time unit.
	Rate float64
	// UpperBound is the verified upper bound q' >= R'max with F(q') <= 0.
	UpperBound float64
	// Input is the optimal input distribution p(x).
	Input info.Dist
	// BitsPerTransmission is H(Y)-H(δ) at the optimal input: the information
	// the receiver learns from a single observed resize.
	BitsPerTransmission float64
	// AvgTime is Tavg at the optimal input, in time units.
	AvgTime float64
	// Rounds is the number of Dinkelbach rounds executed.
	Rounds int
	// Verified reports whether F(UpperBound) <= 0 was confirmed.
	Verified bool
}

// maximizeHelper solves the Dinkelbach helper problem
//
//	F(q) = max_p { N(p) - q D(p) }      (Equation A.13)
//
// over the probability simplex using exponentiated-gradient ascent, starting
// from the provided distribution (which it mutates and returns). The target
// is concave in p (Appendix A), so mirror descent converges to the maximum.
// The gradient buffers are allocated once per call; iterations allocate
// nothing.
func (c *Channel) maximizeHelper(px info.Dist, q float64, iters int, step float64) (info.Dist, float64) {
	s := c.newGradScratch()
	grad := make([]float64, len(px))
	for it := 0; it < iters; it++ {
		c.objectiveGrad(px, q, grad, s)
		// Exponentiated gradient: p <- p * exp(step * g), renormalized.
		// Subtract the max gradient for numerical stability.
		gmax := math.Inf(-1)
		for _, g := range grad {
			if g > gmax {
				gmax = g
			}
		}
		sum := 0.0
		for x, g := range grad {
			px[x] *= math.Exp(step * (g - gmax))
			sum += px[x]
		}
		if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
			// Restart from uniform if the update degenerated.
			setUniform(px)
			continue
		}
		for x := range px {
			px[x] /= sum
		}
	}
	return px, c.objective(px, q)
}

// setUniform overwrites d with the uniform distribution, bit-identical to
// info.NewUniform(len(d)).
func setUniform(d info.Dist) {
	p := 1.0 / float64(len(d))
	for i := range d {
		d[i] = p
	}
}

// MaxRate computes R'max for the channel via Dinkelbach's transform:
//
//  1. q_1 = 0
//  2. solve F(q_i) for p_i
//  3. q_{i+1} = N(p_i)/D(p_i); repeat until F(q_i) < ε
//
// then guesses q' = q_n + δ and verifies F(q') <= 0, doubling δ as needed
// (Appendix A). The returned Result carries both the converged rate and the
// verified upper bound.
func (c *Channel) MaxRate(cfg SolverConfig) Result {
	if cfg.MaxDinkelbachRounds <= 0 {
		cfg = DefaultSolverConfig()
	}
	px := info.NewUniform(len(c.Durations))
	q := 0.0
	rounds := 0
	for ; rounds < cfg.MaxDinkelbachRounds; rounds++ {
		var f float64
		px, f = c.maximizeHelper(px, q, cfg.InnerIterations, cfg.InnerStep)
		qNext := c.InfoPerTransmission(px) / c.AvgTime(px)
		if f < cfg.Tolerance && rounds > 0 {
			break
		}
		q = qNext
	}
	res := Result{
		Rate:                c.Rate(px),
		Input:               px.Clone(),
		BitsPerTransmission: c.InfoPerTransmission(px),
		AvgTime:             c.AvgTime(px),
		Rounds:              rounds,
	}
	// Guess-and-verify the upper bound q' = q_n + δ with F(q') <= 0.
	slack := cfg.UpperBoundSlack
	if slack <= 0 {
		slack = 1e-4
	}
	trial := make(info.Dist, len(c.Durations))
	for attempt := 0; attempt < 20; attempt++ {
		qPrime := res.Rate + slack
		setUniform(trial)
		_, f := c.maximizeHelper(trial, qPrime, cfg.VerifyIterations, cfg.InnerStep)
		if f <= 0 {
			res.UpperBound = qPrime
			res.Verified = true
			return res
		}
		slack *= 2
	}
	// Verification failed within budget; fall back to the unverified rate
	// with the last slack (still conservative relative to the converged q).
	res.UpperBound = res.Rate + slack
	return res
}
