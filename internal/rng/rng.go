// Package rng provides deterministic pseudo-random streams so that every
// experiment in the repository is exactly reproducible from a single seed.
// It wraps math/rand and adds the samplers the learning substrates need
// (Gaussian matrices, Dirichlet draws, permutations, categorical sampling).
package rng

import (
	"math"
	"math/rand"

	"fexiot/internal/mat"
)

// RNG is a deterministic random stream.
type RNG struct {
	r *rand.Rand
}

// New creates a stream from a 64-bit seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the stream exactly where New(seed) would start it, reusing
// the generator's state instead of allocating another (math/rand's source
// is 5 KB): a caller that needs a fresh stream per item keeps one RNG.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Range returns a uniform float64 in [lo,hi).
func (g *RNG) Range(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// IntRange returns a uniform int in [lo,hi] inclusive.
func (g *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange hi < lo")
	}
	return lo + g.r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle permutes the n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Pick returns a uniformly chosen element of xs.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

// PickWeighted returns an index sampled proportionally to weights.
func (g *RNG) PickWeighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	u := g.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Gaussian fills an r×c matrix with N(0, std²) entries.
func (g *RNG) Gaussian(r, c int, std float64) *mat.Dense {
	m := mat.NewDense(r, c)
	d := m.Data()
	for i := range d {
		d[i] = g.NormFloat64() * std
	}
	return m
}

// Glorot fills an r×c matrix with Glorot/Xavier-uniform entries, the
// initialisation the paper's GNN layers use.
func (g *RNG) Glorot(r, c int) *mat.Dense {
	limit := math.Sqrt(6.0 / float64(r+c))
	m := mat.NewDense(r, c)
	d := m.Data()
	for i := range d {
		d[i] = g.Range(-limit, limit)
	}
	return m
}

// Gamma samples from a Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method.
func (g *RNG) Gamma(shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet samples a probability vector from Dirichlet(alpha,...,alpha) of
// dimension k. This drives the non-i.i.d. client splits in the paper's
// evaluation (Fig. 4): small alpha concentrates mass on few classes.
func (g *RNG) Dirichlet(k int, alpha float64) []float64 {
	out := make([]float64, k)
	var sum float64
	for i := range out {
		v := g.Gamma(alpha)
		if v < 1e-300 {
			v = 1e-300
		}
		out[i] = v
		sum += v
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Poisson samples from Poisson(lambda) via Knuth's method (adequate for the
// small rates used by the event-log simulator).
func (g *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		k++
		p *= g.Float64()
		if p <= l {
			return k - 1
		}
		if k > 10000 {
			return k
		}
	}
}

// SampleWithoutReplacement returns k distinct indices from [0,n).
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		k = n
	}
	p := g.Perm(n)
	return p[:k]
}
