package bloom

import (
	"fmt"
	"math/bits"
	"slices"
)

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
	// live holds the signature: bit p is set exactly when counts[p] > 0.
	live []uint64
	// announced holds the live bits as of the last Delta or Rebuild, and
	// flipped is set once a live bit changes after that.
	announced []uint64
	flipped   bool
	m         int
	k         int
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
		counts:    make([]uint32, m),
		live:      make([]uint64, (m+63)/64),
		announced: make([]uint64, (m+63)/64),
		m:         m,
		k:         k,
		max:       uint32(1)<<widthBits - 1,
	}, nil
}

// Insert increments the counters for an element, walking the same probe
// sequence as Filter.Add. A counter leaving zero sets its signature bit;
// counters already at their maximum are left unchanged (saturation) and
// mark the vector dirty.
//
//hot:per-admission signature maintenance; 0 allocs/op pinned by TestSignatureMaintenanceAllocs
func (c *CountingFilter) Insert(element uint64) {
	h1, h2 := probeBasis(element)
	for i := 0; i < c.k; i++ {
		p := int((h1 + uint64(i)*h2) % uint64(c.m))
		switch n := c.counts[p]; {
		case n == 0:
			c.counts[p] = 1
			c.live[p/64] |= 1 << (p % 64)
			c.flipped = true
		case n < c.max:
			c.counts[p] = n + 1
		default:
			c.dirty = true
		}
	}
}

// Remove decrements the counters for an element. A counter reaching zero
// clears its signature bit. Decrements on zero-valued counters are
// discarded and mark the vector dirty, prompting a rebuild.
//
//hot:per-eviction signature maintenance; 0 allocs/op pinned by TestSignatureMaintenanceAllocs
func (c *CountingFilter) Remove(element uint64) {
	h1, h2 := probeBasis(element)
	for i := 0; i < c.k; i++ {
		p := int((h1 + uint64(i)*h2) % uint64(c.m))
		switch n := c.counts[p]; {
		case n == 0, n == c.max:
			// Underflow, or a saturated counter whose true count is
			// unknown: leave it set and flag for rebuild rather than
			// risk a false negative.
			c.dirty = true
		case n == 1:
			c.counts[p] = 0
			c.live[p/64] &^= 1 << (p % 64)
			c.flipped = true
		default:
			c.counts[p] = n - 1
		}
	}
}

// Dirty reports whether a saturation or underflow event made the vector
// inexact.
func (c *CountingFilter) Dirty() bool { return c.dirty }

// Rebuild resets the vector and re-inserts all elements, clearing the dirty
// flag. This is the paper's "reset and reconstruct the counter vector"
// step. The rebuilt signature counts as announced: changes from before the
// rebuild no longer appear in Delta.
func (c *CountingFilter) Rebuild(elements []uint64) {
	clear(c.counts)
	clear(c.live)
	c.dirty = false
	for _, e := range elements {
		c.Insert(e)
	}
	copy(c.announced, c.live)
	c.flipped = false
}

// Signature returns the current cache signature: a Bloom filter with a bit
// set wherever the counter is non-zero, copied from the live bits.
func (c *CountingFilter) Signature() *Filter {
	return (&Filter{words: c.live, m: c.m, k: c.k}).Clone()
}

// Delta appends the signature-update lists the owner piggybacks on its
// next broadcast to inserts and evicts, and returns the results: the
// positions set (inserts) and cleared (evicts) since the last Delta or
// Rebuild, both ascending. They are the live bits XOR the announced bits,
// so a position set and cleared again in between is in neither list.
// Delta then marks the live bits announced. The lists come back unchanged
// when nothing flipped, and grow at most once each when their capacity
// is short.
//
//hot:per-piggyback delta of every GroCoca hello and search broadcast; 0 allocs/op pinned by TestSignatureMaintenanceAllocs
func (c *CountingFilter) Delta(inserts, evicts []int) ([]int, []int) {
	if !c.flipped {
		return inserts, evicts
	}
	c.flipped = false
	nIns, nEvi := 0, 0
	for i, w := range c.live {
		nIns += bits.OnesCount64(w &^ c.announced[i])
		nEvi += bits.OnesCount64(c.announced[i] &^ w)
	}
	inserts = slices.Grow(inserts, nIns)
	evicts = slices.Grow(evicts, nEvi)
	for i, w := range c.live {
		if a := c.announced[i]; w != a {
			inserts = appendSetBits(inserts, i, w&^a)
			evicts = appendSetBits(evicts, i, a&^w)
			c.announced[i] = w
		}
	}
	return inserts, evicts
}

// appendSetBits appends the positions of word wi's set bits w, ascending.
func appendSetBits(dst []int, wi int, w uint64) []int {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, wi*64+trailingZeros(w))
	}
	return dst
}

// Test reports whether the element is possibly represented.
func (c *CountingFilter) Test(element uint64) bool {
	return (&Filter{words: c.live, m: c.m, k: c.k}).Test(element)
}

// PeerVector aggregates the cache signatures of a mobile host's TCG members
// with σ counters of dynamic width π_p: the width expands when an increment
// would overflow and contracts when every counter fits in half the width,
// following Section IV.D.4. A host with no TCG members has width zero.
type PeerVector struct {
	counts []uint32
	// lenHist[b] is the number of counters whose value is b bits long
	// (bits.Len32), so contract finds the widest counter without a scan.
	lenHist   [33]int
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
	v := &PeerVector{counts: make([]uint32, m), m: m, k: k}
	v.lenHist[0] = m
	return v, nil
}

// WidthBits returns the current counter width π_p.
func (v *PeerVector) WidthBits() int { return v.widthBits }

// Members returns the number of member signatures currently folded in.
func (v *PeerVector) Members() int { return v.members }

// inc increments counter p, expanding the width when the counter would
// reach 2^π_p.
func (v *PeerVector) inc(p int) {
	n := v.counts[p] + 1
	v.counts[p] = n
	v.lenHist[bits.Len32(n-1)]--
	v.lenHist[bits.Len32(n)]++
	v.widthBits = max(v.widthBits, bits.Len32(n))
}

// dec decrements counter p, clamping at zero.
func (v *PeerVector) dec(p int) {
	if n := v.counts[p]; n > 0 {
		v.lenHist[bits.Len32(n)]--
		v.lenHist[bits.Len32(n-1)]++
		v.counts[p] = n - 1
	}
}

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
	v.fold(sig.words, true)
	v.members++
	return nil
}

// fold increments (add) or decrements the counter at every set bit of a
// signature, walking the set bits one word at a time.
//
//hot:per-signature-reply fold and withdrawal (BenchmarkPeerVectorAddSignature); 0 allocs/op pinned by TestSignatureMaintenanceAllocs
func (v *PeerVector) fold(words []uint64, add bool) {
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			if p := wi*64 + trailingZeros(w); add {
				v.inc(p)
			} else {
				v.dec(p)
			}
		}
	}
}

// RemoveSignature subtracts a member's cache signature (used when a precise
// withdrawal is possible, e.g. replacing a stale signature with a fresh
// one). Underflows clamp at zero. The width contracts while every counter
// fits within widthBits−1 bits.
func (v *PeerVector) RemoveSignature(sig *Filter) error {
	if sig.M() != v.m {
		return fmt.Errorf("bloom: signature size %d != vector size %d", sig.M(), v.m)
	}
	v.fold(sig.words, false)
	if v.members > 0 {
		v.members--
	}
	v.contract()
	return nil
}

// ApplyDelta applies a piggybacked signature update: bit positions newly set
// (insertions) and newly cleared (evictions) by one member since its last
// broadcast. Positions outside [0, σ) are ignored.
//
//hot:per-beacon and per-request delta fold; 0 allocs/op pinned by TestSignatureMaintenanceAllocs
func (v *PeerVector) ApplyDelta(insertions, evictions []int) {
	if v.widthBits == 0 && len(insertions) > 0 {
		v.widthBits = 1
	}
	for _, p := range insertions {
		if p >= 0 && p < v.m {
			v.inc(p)
		}
	}
	for _, p := range evictions {
		if p >= 0 && p < v.m {
			v.dec(p)
		}
	}
	v.contract()
}

// contract narrows the width while every counter fits in one bit less,
// reading the widest counters' bit length off the histogram; a vector with
// no members and no set counter returns to width zero.
func (v *PeerVector) contract() {
	for v.widthBits > 1 && v.lenHist[v.widthBits] == 0 {
		v.widthBits--
	}
	if v.members == 0 && v.lenHist[0] == v.m {
		v.widthBits = 0
	}
}

// Reset clears all counters and membership, returning the width to zero.
// The paper resets the vector when a TCG member departs or after a
// reconnection, then recollects the remaining members' signatures.
func (v *PeerVector) Reset() {
	clear(v.counts)
	v.lenHist = [33]int{0: v.m}
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
//hot:whole-signature coverage scan; must stay allocation-free
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
//hot:per-miss filtering probe (BenchmarkPeerVectorCoversElement); must stay allocation-free
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
