// Package randx provides seeded random distributions used to calibrate the
// simulated substrates. Runs are reproducible from a single seed; no crypto
// randomness is needed or wanted. Every stream is bit-identical to
// math/rand's for the same seed: the generator is math/rand's, seeded
// lazily (see lagged), and the distributions are math/rand's *rand.Rand
// methods over it.
package randx

import (
	"math"
	"math/rand"
	"sort"
)

// Source is a seeded generator with the distributions the simulators use.
// A Source is reseeded in place rather than rebuilt: Reseed and ForkInto
// allocate nothing, so a warm run path keeps its sources across runs. A
// Source refers to itself and must not be copied; the zero value is ready
// for Reseed or ForkInto.
type Source struct {
	gen lagged
	rng rand.Rand // wraps &gen
}

// New returns a Source seeded with seed.
func New(seed int64) *Source { return new(Source).Reseed(seed) }

// Reseed rewinds s to the stream New(seed) would produce and returns s.
func (s *Source) Reseed(seed int64) *Source {
	s.gen.Seed(seed)
	s.rng = *rand.New(&s.gen)
	return s
}

// Fork derives an independent child source; the child's stream is a pure
// function of the parent's state at the call, so call order matters (and is
// deterministic under the sim kernel).
func (s *Source) Fork() *Source { return s.ForkInto(new(Source)) }

// ForkInto is Fork into caller-owned storage: it reseeds dst with the next
// value of s's stream and returns dst.
func (s *Source) ForkInto(dst *Source) *Source { return dst.Reseed(s.rng.Int63()) }

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.rng.Float64()*(hi-lo)
}

// Normal returns a normal sample with the given mean and standard deviation.
func (s *Source) Normal(mean, sd float64) float64 {
	return mean + sd*s.rng.NormFloat64()
}

// TruncNormal returns a normal sample truncated (by resampling, falling back
// to clamping) to [lo,hi].
func (s *Source) TruncNormal(mean, sd, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		v := s.Normal(mean, sd)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns exp(N(mu, sigma)). Note mu/sigma parameterize the
// underlying normal, not the resulting distribution's mean.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMeanCV returns a lognormal sample parameterized by the desired
// mean and coefficient of variation (sd/mean) of the *resulting*
// distribution, which is the natural way to calibrate task runtimes.
func (s *Source) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.LogNormal(mu, math.Sqrt(sigma2))
}

// Exp returns an exponential sample with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rng.Float64() < p }

// Perm fills m with a random permutation of [0,len(m)) and returns it. It
// runs math/rand's Perm loop, so it draws exactly what rand.Perm(len(m))
// draws and yields the same permutation, into the caller's buffer.
func (s *Source) Perm(m []int) []int {
	for i := range m {
		j := s.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// Zipf samples k in [1,n] with probability proportional to 1/k^alpha, for
// any alpha >= 0: alpha = 0 is uniform, and unlike math/rand's Zipf, alpha
// need not exceed 1. It samples by inverse CDF over weights precomputed at
// construction, so it suits small n.
type Zipf struct {
	cum []float64
}

// NewZipf builds a zipf sampler over [1,n] with exponent alpha >= 0.
// n <= 0 (an empty support would NaN-normalize the CDF) and alpha < 0
// (which would silently invert the skew) panic: degenerate weight inputs
// are rejected loudly.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	if alpha < 0 || math.IsNaN(alpha) {
		panic("randx: NewZipf with negative or NaN alpha")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), alpha)
		cum[i-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}
}

// Sample draws a value in [1,n].
func (z *Zipf) Sample(s *Source) int {
	x := s.Float64()
	return sort.SearchFloat64s(z.cum, x) + 1
}
