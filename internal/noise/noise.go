// Package noise provides the random samplers used by every private mechanism
// in this repository: Laplace, two-sided geometric and exponential-mechanism
// sampling. All randomness flows through a Source seeded explicitly so that
// experiments are reproducible run to run.
package noise

import (
	"math"
	"math/rand"
)

// Source wraps a seeded PRNG and exposes the distributions differential
// privacy mechanisms need. It is not safe for concurrent use; create one per
// goroutine (see Split and SplitN). Race-detector builds add an active guard
// that panics on overlapping use from multiple goroutines, so `go test -race`
// catches shared-source misuse deterministically.
type Source struct {
	rng *rand.Rand
	guard
}

// NewSource returns a Source seeded deterministically.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent Source from this one; convenient for
// fanning one experiment seed out to parallel runs.
func (s *Source) Split() *Source {
	s.enter()
	defer s.exit()
	return NewSource(s.rng.Int63())
}

// SplitN derives n independent Sources in a deterministic order — equivalent
// to calling Split n times. The parallel experiment scheduler uses it to
// pre-assign one stream per unit of work before fanning out, which is what
// keeps parallel runs seed-identical to serial ones.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Uniform returns a uniform float64 in [0, 1).
func (s *Source) Uniform() float64 {
	s.enter()
	defer s.exit()
	return s.rng.Float64()
}

// Intn returns a uniform int in [0, n).
func (s *Source) Intn(n int) int {
	s.enter()
	defer s.exit()
	return s.rng.Intn(n)
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	s.enter()
	defer s.exit()
	return s.rng.Int63()
}

// Skip advances the stream past n draws without transforming them: after
// Skip(n) the stream is where n calls of Laplace(b) with b > 0 would leave
// it. Mechanisms that draw a fixed noise layout but read only part of it use
// Skip for the unread part, so the values they keep sit at the same stream
// positions as in the full layout.
func (s *Source) Skip(n int) {
	s.enter()
	defer s.exit()
	for i := 0; i < n; i++ {
		s.rng.Float64()
	}
}

// Laplace samples from the Laplace distribution with mean 0 and scale b,
// i.e. density (1/2b)·exp(−|x|/b). Scale b ≤ 0 yields 0 (no noise), which is
// convenient for "infinite ε" baselines in tests.
func (s *Source) Laplace(b float64) float64 {
	s.enter()
	defer s.exit()
	return s.laplace(b)
}

// laplace is Laplace without the concurrency guard, for internal loops.
func (s *Source) laplace(b float64) float64 {
	if b <= 0 {
		return 0
	}
	// Inverse CDF on u ∈ (−1/2, 1/2).
	u := s.rng.Float64() - 0.5
	if u == 0 {
		return 0
	}
	if u > 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// LaplaceVec returns n independent Laplace(b) samples.
func (s *Source) LaplaceVec(n int, b float64) []float64 {
	s.enter()
	defer s.exit()
	out := make([]float64, n)
	for i := range out {
		out[i] = s.laplace(b)
	}
	return out
}

// TwoSidedGeometric samples the discrete analogue of Laplace noise with
// parameter alpha = exp(−ε/Δ): P(X = z) ∝ alpha^|z|.
func (s *Source) TwoSidedGeometric(alpha float64) int64 {
	s.enter()
	defer s.exit()
	if alpha <= 0 {
		return 0
	}
	if alpha >= 1 {
		panic("noise: TwoSidedGeometric needs alpha in (0,1)")
	}
	u := s.rng.Float64()
	// P(X=0) = (1-alpha)/(1+alpha); each tail carries alpha/(1+alpha).
	p0 := (1 - alpha) / (1 + alpha)
	if u < p0 {
		return 0
	}
	u -= p0
	tail := alpha / (1 + alpha)
	neg := false
	if u >= tail {
		u -= tail
		neg = true
	}
	// Within a tail: geometric with success prob (1-alpha), support {1,2,…}.
	// u ∈ [0, tail); rescale to [0,1).
	u /= tail
	z := int64(math.Floor(math.Log(1-u)/math.Log(alpha))) + 1
	if neg {
		return -z
	}
	return z
}

// ExpMechIndex samples index i with probability proportional to
// exp(ε·score[i]/(2·sensitivity)), the exponential mechanism of McSherry and
// Talwar. Scores may be negative.
func (s *Source) ExpMechIndex(scores []float64, eps, sensitivity float64) int {
	s.enter()
	defer s.exit()
	if len(scores) == 0 {
		panic("noise: ExpMechIndex on empty scores")
	}
	// Subtract max for numerical stability.
	maxScore := scores[0]
	for _, v := range scores[1:] {
		if v > maxScore {
			maxScore = v
		}
	}
	weights := make([]float64, len(scores))
	var total float64
	for i, v := range scores {
		w := math.Exp(eps * (v - maxScore) / (2 * sensitivity))
		weights[i] = w
		total += w
	}
	u := s.rng.Float64() * total
	for i, w := range weights {
		u -= w
		if u <= 0 {
			return i
		}
	}
	return len(scores) - 1
}

// Shuffle permutes indices [0,n) uniformly and calls swap like rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	s.enter()
	defer s.exit()
	s.rng.Shuffle(n, swap)
}

// NormFloat64 returns a standard normal sample (used only by synthetic data
// generators, never by privacy mechanisms).
func (s *Source) NormFloat64() float64 {
	s.enter()
	defer s.exit()
	return s.rng.NormFloat64()
}
