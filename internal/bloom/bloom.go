// Package bloom implements the cache signature scheme of GroCoca: Bloom
// filters for data/cache/search/peer signatures, counting filters for
// proactive signature maintenance, dynamic-width peer counter vectors for
// the signature exchange protocol, and the variable-length-to-fixed-length
// (VLFL) run-length compression with the optimal-R search of the paper's
// Algorithm 4.
package bloom

import (
	"fmt"
	"math"
	"math/bits"
)

// Filter is a Bloom filter over m bits with k hash functions. Positions are
// derived with Kirsch–Mitzenmacher double hashing, so all k probes come from
// two independent 64-bit mixes of the element.
type Filter struct {
	words []uint64
	m     int
	k     int
}

// NewFilter creates a filter with m bits and k hash functions.
func NewFilter(m, k int) (*Filter, error) {
	if m <= 0 {
		return nil, fmt.Errorf("bloom: filter size %d must be positive", m)
	}
	if k <= 0 {
		return nil, fmt.Errorf("bloom: hash count %d must be positive", k)
	}
	return &Filter{words: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

// M returns the filter size in bits.
func (f *Filter) M() int { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// mix64 is the splitmix64 finalizer, a high-quality 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// probeBasis derives the two double-hashing mixes for an element; probe i
// is (h1 + i*h2) mod m. h2 is forced odd so probes cycle through all
// positions.
func probeBasis(element uint64) (h1, h2 uint64) {
	h1 = mix64(element)
	h2 = mix64(element^0x9E3779B97F4A7C15) | 1
	return h1, h2
}

// Add inserts an element.
//
//hot:per-request signature insertion (BenchmarkFilterAdd); probes inline, allocation-free
func (f *Filter) Add(element uint64) {
	h1, h2 := probeBasis(element)
	for i := 0; i < f.k; i++ {
		f.setBit(int((h1 + uint64(i)*h2) % uint64(f.m)))
	}
}

// Test reports whether the element is possibly present (true may be a false
// positive; false is definitive).
//
//hot:per-probe membership test (BenchmarkFilterTest); probes inline, allocation-free
func (f *Filter) Test(element uint64) bool {
	h1, h2 := probeBasis(element)
	for i := 0; i < f.k; i++ {
		if !f.Bit(int((h1 + uint64(i)*h2) % uint64(f.m))) {
			return false
		}
	}
	return true
}

// Bit reports whether bit p is set.
func (f *Filter) Bit(p int) bool {
	return f.words[p/64]&(1<<(p%64)) != 0
}

func (f *Filter) setBit(p int) { f.words[p/64] |= 1 << (p % 64) }

// SetBit sets bit p for applying piggybacked insertion deltas to stored
// member signatures. Positions outside [0, M) are ignored.
func (f *Filter) SetBit(p int) {
	if p >= 0 && p < f.m {
		f.setBit(p)
	}
}

// ClearBit clears bit p for applying piggybacked eviction deltas to stored
// member signatures. Positions outside [0, M) are ignored.
func (f *Filter) ClearBit(p int) {
	if p >= 0 && p < f.m {
		f.words[p/64] &^= 1 << (p % 64)
	}
}

// Union folds other into f (bitwise or). Both filters must have identical
// geometry; mismatches are an error.
func (f *Filter) Union(other *Filter) error {
	if other.m != f.m || other.k != f.k {
		return fmt.Errorf("bloom: union geometry mismatch (%d,%d) vs (%d,%d)", f.m, f.k, other.m, other.k)
	}
	for i, w := range other.words {
		f.words[i] |= w
	}
	return nil
}

// Covers reports whether every bit set in sub is also set in f — the
// "bitwise and equals the search signature" test the paper uses to match a
// search or data signature against a peer signature.
func (f *Filter) Covers(sub *Filter) bool {
	if sub.m != f.m {
		return false
	}
	for i, w := range sub.words {
		if f.words[i]&w != w {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (f *Filter) OnesCount() int {
	total := 0
	for _, w := range f.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Reset clears all bits.
func (f *Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
}

// Clone returns an independent copy.
func (f *Filter) Clone() *Filter {
	words := make([]uint64, len(f.words))
	copy(words, f.words)
	return &Filter{words: words, m: f.m, k: f.k}
}

// Equal reports whether two filters have identical geometry and bits.
func (f *Filter) Equal(other *Filter) bool {
	if other == nil || f.m != other.m || f.k != other.k {
		return false
	}
	for i, w := range f.words {
		if other.words[i] != w {
			return false
		}
	}
	return true
}

// Words exposes the raw backing words (shared, not copied) for the VLFL
// encoder. Trailing bits beyond M are always zero.
func (f *Filter) Words() []uint64 { return f.words }

// FalsePositiveRate returns the theoretical false positive probability after
// n insertions: (1 − (1 − 1/m)^(nk))^k.
func FalsePositiveRate(m, k, n int) float64 {
	if m <= 0 || k <= 0 || n < 0 {
		return 0
	}
	zeroP := math.Pow(1-1/float64(m), float64(n*k))
	return math.Pow(1-zeroP, float64(k))
}

// OptimalK returns the hash count minimising the false positive rate for a
// filter of m bits holding n elements: k = ln2 · m/n, at least 1.
func OptimalK(m, n int) int {
	if n <= 0 || m <= 0 {
		return 1
	}
	k := int(math.Round(math.Ln2 * float64(m) / float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// trailingZeros is a small indirection over math/bits for the word-wise
// scanners in this package.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
