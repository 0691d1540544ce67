package bloom

import "fmt"

// CountingFilter is the proactive cache-signature structure: a vector of σ
// counters of width widthBits. Inserting (evicting) a cached item increments
// (decrements) the counters at its data-signature positions, so the cache
// signature can be regenerated without rehashing the whole cache. Counters
// saturate at their maximum value: a saturated counter is neither
// incremented further nor decremented (decrementing it could create a false
// negative), exactly as Section IV.D.3 prescribes; when a decrement would
// be discarded the owner is expected to rebuild the vector from the cache.
type CountingFilter struct {
	counts []uint32
	m      int
	k      int
	// max is the saturation bound, (1<<widthBits)-1.
	max uint32
	// dirty is set when a saturation event forced a discard, signalling
	// that the vector no longer exactly reflects the cache and should be
	// rebuilt.
	dirty bool
}

// NewCountingFilter creates a counter vector with m counters of widthBits
// bits each, driven by k hash functions.
func NewCountingFilter(m, k, widthBits int) (*CountingFilter, error) {
	if m <= 0 || k <= 0 {
		return nil, fmt.Errorf("bloom: counting filter geometry (%d, %d) invalid", m, k)
	}
	if widthBits < 1 || widthBits > 32 {
		return nil, fmt.Errorf("bloom: counter width %d outside [1, 32]", widthBits)
	}
	return &CountingFilter{
		counts: make([]uint32, m),
		m:      m,
		k:      k,
		max:    uint32(1)<<widthBits - 1,
	}, nil
}

// positions mirrors Filter.Positions so a CountingFilter and a Filter with
// the same geometry agree on probe locations.
func (c *CountingFilter) positions(element uint64) []int {
	f := Filter{m: c.m, k: c.k}
	return f.Positions(element)
}

// Insert increments the counters for an element and returns the bit
// positions that transitioned from zero to set — the entries of the
// signature-update insertion list the owner piggybacks on its next
// broadcast. Counters already at their maximum are left unchanged
// (saturation).
func (c *CountingFilter) Insert(element uint64) []int {
	var changed []int
	for _, p := range c.positions(element) {
		switch {
		case c.counts[p] == 0:
			c.counts[p] = 1
			changed = append(changed, p)
		case c.counts[p] < c.max:
			c.counts[p]++
		default:
			c.dirty = true
		}
	}
	return changed
}

// Remove decrements the counters for an element and returns the bit
// positions that transitioned to zero — the entries of the eviction list.
// Decrements on zero-valued counters are discarded and mark the vector
// dirty, prompting a rebuild.
func (c *CountingFilter) Remove(element uint64) []int {
	var changed []int
	for _, p := range c.positions(element) {
		switch {
		case c.counts[p] == 0:
			c.dirty = true
		case c.counts[p] == c.max:
			// The true count is unknown once saturated; leave it set and
			// flag for rebuild rather than risk a false negative.
			c.dirty = true
		case c.counts[p] == 1:
			c.counts[p] = 0
			changed = append(changed, p)
		default:
			c.counts[p]--
		}
	}
	return changed
}

// Dirty reports whether a saturation or underflow event made the vector
// inexact.
func (c *CountingFilter) Dirty() bool { return c.dirty }

// Rebuild resets the vector and re-inserts all elements, clearing the dirty
// flag. This is the paper's "reset and reconstruct the counter vector"
// step.
func (c *CountingFilter) Rebuild(elements []uint64) {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.dirty = false
	for _, e := range elements {
		c.Insert(e)
	}
}

// Signature materialises the current cache signature: a Bloom filter with a
// bit set wherever the counter is non-zero.
func (c *CountingFilter) Signature() *Filter {
	f := &Filter{words: make([]uint64, (c.m+63)/64), m: c.m, k: c.k}
	for p, n := range c.counts {
		if n > 0 {
			f.setBit(p)
		}
	}
	return f
}

// Test reports whether the element is possibly represented.
func (c *CountingFilter) Test(element uint64) bool {
	for _, p := range c.positions(element) {
		if c.counts[p] == 0 {
			return false
		}
	}
	return true
}

// PeerVector aggregates the cache signatures of a mobile host's TCG members
// with σ counters of dynamic width π_p: the width expands when an increment
// would overflow and contracts when every counter fits in half the width,
// following Section IV.D.4. A host with no TCG members has width zero.
type PeerVector struct {
	counts    []uint32
	m         int
	k         int
	widthBits int
	members   int
}

// NewPeerVector creates an empty peer counter vector for signatures of m
// bits and k hashes. Width starts at zero (no members).
func NewPeerVector(m, k int) (*PeerVector, error) {
	if m <= 0 || k <= 0 {
		return nil, fmt.Errorf("bloom: peer vector geometry (%d, %d) invalid", m, k)
	}
	return &PeerVector{counts: make([]uint32, m), m: m, k: k}, nil
}

// WidthBits returns the current counter width π_p.
func (v *PeerVector) WidthBits() int { return v.widthBits }

// Members returns the number of member signatures currently folded in.
func (v *PeerVector) Members() int { return v.members }

// AddSignature folds a member's cache signature into the vector,
// incrementing the counter at every set bit and expanding the width when a
// counter would reach 2^π_p.
func (v *PeerVector) AddSignature(sig *Filter) error {
	if sig.M() != v.m {
		return fmt.Errorf("bloom: signature size %d != vector size %d", sig.M(), v.m)
	}
	if v.widthBits == 0 {
		v.widthBits = 1
	}
	for p := 0; p < v.m; p++ {
		if !sig.Bit(p) {
			continue
		}
		v.counts[p]++
		for v.counts[p] >= uint32(1)<<v.widthBits {
			v.widthBits++
		}
	}
	v.members++
	return nil
}

// RemoveSignature subtracts a member's cache signature (used when a precise
// withdrawal is possible, e.g. replacing a stale signature with a fresh
// one). Underflows clamp at zero. The width contracts while every counter
// fits within widthBits−1 bits.
func (v *PeerVector) RemoveSignature(sig *Filter) error {
	if sig.M() != v.m {
		return fmt.Errorf("bloom: signature size %d != vector size %d", sig.M(), v.m)
	}
	for p := 0; p < v.m; p++ {
		if sig.Bit(p) && v.counts[p] > 0 {
			v.counts[p]--
		}
	}
	if v.members > 0 {
		v.members--
	}
	v.contract()
	return nil
}

// ApplyDelta applies a piggybacked signature update: bit positions newly set
// (insertions) and newly cleared (evictions) by one member since its last
// broadcast.
func (v *PeerVector) ApplyDelta(insertions, evictions []int) {
	if v.widthBits == 0 && len(insertions) > 0 {
		v.widthBits = 1
	}
	for _, p := range insertions {
		if p < 0 || p >= v.m {
			continue
		}
		v.counts[p]++
		for v.counts[p] >= uint32(1)<<v.widthBits {
			v.widthBits++
		}
	}
	for _, p := range evictions {
		if p < 0 || p >= v.m {
			continue
		}
		if v.counts[p] > 0 {
			v.counts[p]--
		}
	}
	v.contract()
}

func (v *PeerVector) contract() {
	for v.widthBits > 1 {
		limit := uint32(1) << (v.widthBits - 1)
		allBelow := true
		for _, n := range v.counts {
			if n >= limit {
				allBelow = false
				break
			}
		}
		if !allBelow {
			return
		}
		v.widthBits--
	}
	if v.members == 0 {
		empty := true
		for _, n := range v.counts {
			if n != 0 {
				empty = false
				break
			}
		}
		if empty {
			v.widthBits = 0
		}
	}
}

// Reset clears all counters and membership, returning the width to zero.
// The paper resets the vector when a TCG member departs or after a
// reconnection, then recollects the remaining members' signatures.
func (v *PeerVector) Reset() {
	for i := range v.counts {
		v.counts[i] = 0
	}
	v.members = 0
	v.widthBits = 0
}

// Signature materialises the peer signature: a Bloom filter with a bit set
// wherever any member contributes.
func (v *PeerVector) Signature() *Filter {
	f := &Filter{words: make([]uint64, (v.m+63)/64), m: v.m, k: v.k}
	for p, n := range v.counts {
		if n > 0 {
			f.setBit(p)
		}
	}
	return f
}

// Covers reports whether the peer signature covers the given search or data
// signature, i.e. some TCG member probably caches the item. Only the set
// bits of sub are visited.
//
//hot:filtering-mechanism scan on every miss (BenchmarkPeerVectorCovers)
func (v *PeerVector) Covers(sub *Filter) bool {
	if sub.M() != v.m {
		return false
	}
	for wi, w := range sub.Words() {
		base := wi * 64
		for w != 0 {
			p := base + trailingZeros(w)
			if v.counts[p] == 0 {
				return false
			}
			w &= w - 1 // clear lowest set bit
		}
	}
	return true
}

// CoversElement is the allocation-free form of building a one-element
// search/data signature and testing Covers against it — the per-miss hot
// path of the filtering mechanism and the cooperative replacement scan.
//
//hot:per-miss filtering probe; must stay allocation-free
func (v *PeerVector) CoversElement(element uint64) bool {
	f := Filter{m: v.m, k: v.k}
	h1 := mix64(element)
	h2 := mix64(element^0x9E3779B97F4A7C15) | 1
	for i := 0; i < f.k; i++ {
		p := int((h1 + uint64(i)*h2) % uint64(f.m))
		if v.counts[p] == 0 {
			return false
		}
	}
	return true
}
