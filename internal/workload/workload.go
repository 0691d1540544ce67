// Package workload generates the client access pattern of the paper's
// client model: each motion group shares a common access range of data
// items, item popularity within the range follows a Zipf distribution with
// skewness parameter θ, and request interarrival times are exponentially
// distributed.
package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// ItemID identifies a data item in the server catalog. IDs are dense
// integers in [0, NData).
type ItemID int

// Zipf draws items from a Zipf distribution with arbitrary skew θ ∈ [0, 1]
// over n ranks: P(rank i) ∝ 1 / i^θ. θ = 0 is uniform; θ = 1 is classic
// Zipf. The standard library generator requires s > 1, so we implement the
// CDF-inversion form the paper's range needs.
//
// A draw inverts the CDF through a guide table (the indexed search of Chen
// and Asau, 1974): guide[k] is the first rank whose CDF reaches k/n, so a
// uniform u starts its scan at guide[int(u·n)], on average less than one
// rank before its answer, instead of binary-searching all n.
type Zipf struct {
	cdf   []float64 // cumulative probabilities, len n, non-decreasing, cdf[n-1] = 1
	guide []int32   // len n+1
}

// ValidateSkew reports whether theta is a usable Zipf skew.
func ValidateSkew(theta float64) error {
	if !(theta >= 0) {
		return fmt.Errorf("workload: zipf skew %v must be non-negative", theta)
	}
	return nil
}

// NewZipf builds a generator over n ranks with skewness theta.
func NewZipf(n int, theta float64) (*Zipf, error) {
	if n <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("workload: zipf size %d must be in [1, %d]", n, math.MaxInt32)
	}
	if err := ValidateSkew(theta); err != nil {
		return nil, err
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against rounding
	return newZipfCDF(cdf), nil
}

// newZipfCDF builds the guide table over cdf, which must be non-decreasing
// and end at 1.
func newZipfCDF(cdf []float64) *Zipf {
	n := len(cdf)
	guide := make([]int32, n+1)
	i := 0
	for k := range guide {
		for t := float64(k) / float64(n); cdf[i] < t; {
			i++
		}
		guide[k] = int32(i)
	}
	return &Zipf{cdf: cdf, guide: guide}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank draws a rank in [0, n), rank 0 being the most popular.
//
//hot:the item draw of every request; 0 allocs/op pinned by TestZipfRankAllocs
func (z *Zipf) Rank(rng *sim.RNG) int {
	return z.rank(rng.Float64())
}

// rank returns the first rank whose CDF reaches u ∈ [0, 1], exactly what
// sort.SearchFloat64s(z.cdf, u) returns. Rounding in u·n can start the
// scan one bucket late, past the answer, when u lies just below a bucket
// edge k/n; the step back undoes that, and after it every rank before i has
// a CDF below u, so the forward scan stops at the answer.
//
//hot:the CDF inversion of every request's item draw
func (z *Zipf) rank(u float64) int {
	i := int(z.guide[int(u*float64(len(z.cdf)))])
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Prob returns the probability of drawing the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// AccessRange maps Zipf ranks onto a contiguous window of the server
// catalog, with a per-group permutation of ranks so that different groups
// favour different items even when their windows overlap.
type AccessRange struct {
	zipf  *Zipf
	items []ItemID // items[rank] = item id
}

// NewAccessRange creates an access pattern over `size` items starting at
// `first` within a catalog of nData items, with Zipf skew theta. Rank-to-
// item assignment within the window is shuffled with rng so each group has
// its own hot set.
func NewAccessRange(first ItemID, size, nData int, theta float64, rng *sim.RNG) (*AccessRange, error) {
	if size <= 0 {
		return nil, fmt.Errorf("workload: access range size %d must be positive", size)
	}
	if first < 0 || int(first)+size > nData {
		return nil, fmt.Errorf("workload: range [%d, %d) outside catalog of %d", first, int(first)+size, nData)
	}
	z, err := NewZipf(size, theta)
	if err != nil {
		return nil, err
	}
	items := make([]ItemID, size)
	for i := range items {
		items[i] = first + ItemID(i)
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return &AccessRange{zipf: z, items: items}, nil
}

// Next draws the next requested item.
func (a *AccessRange) Next(rng *sim.RNG) ItemID {
	return a.items[a.zipf.Rank(rng)]
}

// Shift drifts the group's interests: a fraction of the rank→item
// assignment is re-permuted, so previously hot items cool down and tail
// items heat up. The item set itself is unchanged. fraction is clamped to
// [0, 1]; 1 re-shuffles the whole mapping.
func (a *AccessRange) Shift(fraction float64, rng *sim.RNG) {
	if fraction <= 0 {
		return
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int(fraction * float64(len(a.items)))
	if n < 2 {
		n = 2
	}
	if n > len(a.items) {
		n = len(a.items)
	}
	// Choose n distinct rank slots and rotate their items: a partial
	// derangement that guarantees every chosen slot changes.
	slots := rng.Perm(len(a.items))[:n]
	first := a.items[slots[0]]
	for i := 0; i < n-1; i++ {
		a.items[slots[i]] = a.items[slots[i+1]]
	}
	a.items[slots[n-1]] = first
}

// Size returns the number of distinct items in the range.
func (a *AccessRange) Size() int { return len(a.items) }

// Contains reports whether the item belongs to this range.
func (a *AccessRange) Contains(id ItemID) bool {
	for _, it := range a.items {
		if it == id {
			return true
		}
	}
	return false
}

// Generator produces the full request stream for one mobile host: items from
// the group's access range with exponential interarrival times.
type Generator struct {
	access *AccessRange
	mean   time.Duration
	rng    *sim.RNG
}

// NewGenerator creates a request generator with the given mean interarrival
// time.
func NewGenerator(access *AccessRange, meanInterarrival time.Duration, rng *sim.RNG) (*Generator, error) {
	if access == nil {
		return nil, fmt.Errorf("workload: nil access range")
	}
	if meanInterarrival <= 0 {
		return nil, fmt.Errorf("workload: mean interarrival %v must be positive", meanInterarrival)
	}
	return &Generator{access: access, mean: meanInterarrival, rng: rng}, nil
}

// Next returns the next item to request and the think time to wait before
// issuing it.
func (g *Generator) Next() (ItemID, time.Duration) {
	return g.access.Next(g.rng), g.rng.Exp(g.mean)
}
