package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// RNG wraps math/rand with the distributions the simulation model needs and
// a mechanism for deriving independent named sub-streams from a root seed.
// Splitting by purpose ("mobility", "workload", ...) keeps the workload
// identical across schemes even though each scheme consumes different
// amounts of randomness elsewhere.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a generator rooted at seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Stream derives an independent generator for the named purpose. The same
// (seed, name) pair always yields the same stream.
func (g *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	derived := int64(h.Sum64()) ^ (g.seed * golden)
	return NewRNG(derived)
}

// Seed returns the seed this generator was rooted at.
func (g *RNG) Seed() int64 { return g.seed }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Float64()*(hi-lo)
}

// UniformDuration returns a uniform duration in [lo, hi).
func (g *RNG) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.r.Int63n(int64(hi-lo)))
}

// Exp returns an exponentially distributed duration with the given mean.
// A non-positive mean returns zero.
func (g *RNG) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := g.r.Float64()
	for u == 0 {
		u = g.r.Float64()
	}
	d := -math.Log(u) * float64(mean)
	if d > float64(math.MaxInt64)/2 {
		d = float64(math.MaxInt64) / 2
	}
	return time.Duration(d)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
