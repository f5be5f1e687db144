package covert

import (
	"math"
	"math/rand"
	"testing"

	"untangle/internal/info"
)

// scalarObjectiveGrad is the reference gradient: one input at a time,
// allocating its buffers, adding 1/ln 2 inside the kernel loop. The solver's
// objectiveGrad must reproduce it bit for bit.
func (c *Channel) scalarObjectiveGrad(px info.Dist, q float64, grad []float64) {
	py := c.OutputDist(px)
	lo, _ := c.outputSpan()
	w := len(c.Noise)
	const invLn2 = 1 / math.Ln2
	logPy := make([]float64, len(py))
	for y, p := range py {
		if p > 0 {
			logPy[y] = math.Log2(p)
		}
	}
	for x := range px {
		g := 0.0
		base := c.Durations[x] - (w - 1) - lo
		for k, kq := range c.noiseDiff {
			if kq > 0 {
				g -= kq * (logPy[base+k] + invLn2)
			}
		}
		grad[x] = g - q*float64(c.Durations[x])
	}
}

// randomInput draws a distribution over n inputs; with zeros set, about a
// third of the entries are exactly zero (at least one stays positive).
func randomInput(rng *rand.Rand, n int, zeros bool) info.Dist {
	px := make(info.Dist, n)
	sum := 0.0
	for x := range px {
		if zeros && x > 0 && rng.Intn(3) == 0 {
			continue
		}
		px[x] = rng.ExpFloat64()
		sum += px[x]
	}
	for x := range px {
		px[x] /= sum
	}
	return px
}

func TestObjectiveGradMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	noises := []info.Dist{
		{1},
		UniformNoise(2),
		UniformNoise(7),
		UniformNoise(40),
		{0.5, 0, 0.25, 0.25}, // a kernel with interior zeros
	}
	for _, noise := range noises {
		for _, step := range []int{1, 3, 5} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 9, 13, 129} {
				durations := make([]int, n)
				for x := range durations {
					durations[x] = 40 + x*step
				}
				ch, err := NewChannel(durations, noise)
				if err != nil {
					t.Fatal(err)
				}
				s := ch.newGradScratch()
				got := make([]float64, n)
				want := make([]float64, n)
				for trial := 0; trial < 4; trial++ {
					px := randomInput(rng, n, trial%2 == 1)
					q := rng.Float64() * 0.1
					ch.objectiveGrad(px, q, got, s)
					ch.scalarObjectiveGrad(px, q, want)
					for x := range want {
						if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
							t.Fatalf("noise width %d, step %d, n %d, px %v: grad[%d] = %v (%#x), oracle %v (%#x)",
								len(noise), step, n, px, x, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
						}
					}
				}
			}
		}
	}
}

func TestMaximizeHelperDoesNotAllocatePerIteration(t *testing.T) {
	durations := make([]int, 33)
	for x := range durations {
		durations[x] = 40 + 5*x
	}
	ch, err := NewChannel(durations, UniformNoise(40))
	if err != nil {
		t.Fatal(err)
	}
	px := info.NewUniform(len(durations))
	short := testing.AllocsPerRun(3, func() { ch.maximizeHelper(px, 0.001, 1, 0.25) })
	long := testing.AllocsPerRun(3, func() { ch.maximizeHelper(px, 0.001, 50, 0.25) })
	if long != short {
		t.Fatalf("maximizeHelper allocates %v times for 1 iteration and %v for 50", short, long)
	}
}
