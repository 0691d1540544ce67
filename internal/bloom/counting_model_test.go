package bloom

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refCounting is the reference model of a CountingFilter: the counter
// vector with no signature bits of its own, so the signature is a scan of
// every counter, and the piggyback lists kept as two position sets in
// which setting and clearing one position cancel out.
type refCounting struct {
	counts   []uint32
	m, k     int
	max      uint32
	dirty    bool
	inserts  map[int]bool
	evictees map[int]bool
}

func newRefCounting(m, k, widthBits int) *refCounting {
	return &refCounting{
		counts:   make([]uint32, m),
		m:        m,
		k:        k,
		max:      uint32(1)<<widthBits - 1,
		inserts:  map[int]bool{},
		evictees: map[int]bool{},
	}
}

// positions returns the element's k probe positions, in probe order.
func (r *refCounting) positions(e uint64) []int {
	h1, h2 := probeBasis(e)
	out := make([]int, r.k)
	for i := range out {
		out[i] = int((h1 + uint64(i)*h2) % uint64(r.m))
	}
	return out
}

// set records a position whose counter left zero.
func (r *refCounting) set(p int) {
	if r.evictees[p] {
		delete(r.evictees, p)
	} else {
		r.inserts[p] = true
	}
}

// cleared records a position whose counter reached zero.
func (r *refCounting) cleared(p int) {
	if r.inserts[p] {
		delete(r.inserts, p)
	} else {
		r.evictees[p] = true
	}
}

func (r *refCounting) insert(e uint64) {
	for _, p := range r.positions(e) {
		switch {
		case r.counts[p] == 0:
			r.counts[p] = 1
			r.set(p)
		case r.counts[p] < r.max:
			r.counts[p]++
		default:
			r.dirty = true
		}
	}
}

func (r *refCounting) remove(e uint64) {
	for _, p := range r.positions(e) {
		switch {
		case r.counts[p] == 0, r.counts[p] == r.max:
			r.dirty = true
		case r.counts[p] == 1:
			r.counts[p] = 0
			r.cleared(p)
		default:
			r.counts[p]--
		}
	}
}

// rebuild re-inserts the elements into zeroed counters and forgets every
// pending change.
func (r *refCounting) rebuild(elements []uint64) {
	clear(r.counts)
	r.dirty = false
	for _, e := range elements {
		r.insert(e)
	}
	clear(r.inserts)
	clear(r.evictees)
}

func (r *refCounting) signature() *Filter {
	f := &Filter{words: make([]uint64, (r.m+63)/64), m: r.m, k: r.k}
	for p, n := range r.counts {
		if n > 0 {
			f.setBit(p)
		}
	}
	return f
}

// pending returns the sorted piggyback lists without draining them.
func (r *refCounting) pending() (inserts, evicts []int) {
	sorted := func(set map[int]bool) []int {
		var out []int
		for p := range set {
			out = append(out, p)
		}
		slices.Sort(out)
		return out
	}
	return sorted(r.inserts), sorted(r.evictees)
}

// peekDelta reads c's pending Delta from a copy, leaving c undrained.
func peekDelta(c *CountingFilter) (inserts, evicts []int) {
	cp := *c
	cp.counts = slices.Clone(c.counts)
	cp.live = slices.Clone(c.live)
	cp.announced = slices.Clone(c.announced)
	return cp.Delta()
}

// TestCountingFilterMatchesReferenceModel drives a CountingFilter and the
// reference model through random inserts, removals of cached and absent
// items, rebuilds from the cached items and drains. Narrow counters
// saturate and small vectors collide, so every counter path is taken.
// After every step the signature must equal the model's counter scan, the
// pending delta the model's position sets, and the dirty flags must agree.
func TestCountingFilterMatchesReferenceModel(t *testing.T) {
	rng := sim.NewRNG(29).Stream("counting-model")
	geometries := []struct{ m, k, width int }{
		{m: 100, k: 2, width: 1},
		{m: 130, k: 3, width: 2},
		{m: 64, k: 1, width: 3},
		{m: 1000, k: 2, width: 4},
	}
	for _, geo := range geometries {
		t.Run(fmt.Sprintf("m=%d,k=%d,width=%d", geo.m, geo.k, geo.width), func(t *testing.T) {
			c, err := NewCountingFilter(geo.m, geo.k, geo.width)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCounting(geo.m, geo.k, geo.width)
			var cached []uint64
			for step := 0; step < 3000; step++ {
				op := rng.Intn(10)
				if c.Dirty() && rng.Intn(2) == 0 {
					op = 8 // the owner usually rebuilds a dirty vector at once
				}
				switch {
				case op < 4: // admit an item
					e := uint64(rng.Intn(4 * geo.m))
					c.Insert(e)
					ref.insert(e)
					cached = append(cached, e)
				case op < 7 && len(cached) > 0: // evict a cached item
					i := rng.Intn(len(cached))
					e := cached[i]
					cached = slices.Delete(cached, i, i+1)
					c.Remove(e)
					ref.remove(e)
				case op < 8: // remove an item that may be absent
					e := uint64(rng.Intn(4 * geo.m))
					c.Remove(e)
					ref.remove(e)
				case op < 9: // rebuild from the cached items
					c.Rebuild(cached)
					ref.rebuild(cached)
				default: // drain the piggyback lists
					gotIns, gotEvi := c.Delta()
					wantIns, wantEvi := ref.pending()
					clear(ref.inserts)
					clear(ref.evictees)
					if !slices.Equal(gotIns, wantIns) || !slices.Equal(gotEvi, wantEvi) {
						t.Fatalf("step %d: Delta = +%v -%v, model +%v -%v", step, gotIns, gotEvi, wantIns, wantEvi)
					}
				}
				if !c.Signature().Equal(ref.signature()) {
					t.Fatalf("step %d (op %d): signature differs from the counter scan", step, op)
				}
				gotIns, gotEvi := peekDelta(c)
				wantIns, wantEvi := ref.pending()
				if !slices.Equal(gotIns, wantIns) || !slices.Equal(gotEvi, wantEvi) {
					t.Fatalf("step %d (op %d): pending delta = +%v -%v, model +%v -%v", step, op, gotIns, gotEvi, wantIns, wantEvi)
				}
				if c.Dirty() != ref.dirty {
					t.Fatalf("step %d (op %d): Dirty = %v, model %v", step, op, c.Dirty(), ref.dirty)
				}
			}
		})
	}
}

// refPeerVector is the reference model of a PeerVector's width: it
// rescans every counter to decide whether the width can contract.
type refPeerVector struct {
	counts    []uint32
	widthBits int
	members   int
}

func (r *refPeerVector) inc(p int) {
	r.counts[p]++
	for r.counts[p] >= uint32(1)<<r.widthBits {
		r.widthBits++
	}
}

func (r *refPeerVector) add(sig *Filter) {
	if r.widthBits == 0 {
		r.widthBits = 1
	}
	for p := range r.counts {
		if sig.Bit(p) {
			r.inc(p)
		}
	}
	r.members++
}

func (r *refPeerVector) remove(sig *Filter) {
	for p := range r.counts {
		if sig.Bit(p) && r.counts[p] > 0 {
			r.counts[p]--
		}
	}
	if r.members > 0 {
		r.members--
	}
	r.contract()
}

func (r *refPeerVector) applyDelta(insertions, evictions []int) {
	if r.widthBits == 0 && len(insertions) > 0 {
		r.widthBits = 1
	}
	for _, p := range insertions {
		if p >= 0 && p < len(r.counts) {
			r.inc(p)
		}
	}
	for _, p := range evictions {
		if p >= 0 && p < len(r.counts) && r.counts[p] > 0 {
			r.counts[p]--
		}
	}
	r.contract()
}

func (r *refPeerVector) contract() {
	for r.widthBits > 1 {
		limit := uint32(1) << (r.widthBits - 1)
		for _, n := range r.counts {
			if n >= limit {
				return
			}
		}
		r.widthBits--
	}
	if r.members == 0 && !slices.ContainsFunc(r.counts, func(n uint32) bool { return n != 0 }) {
		r.widthBits = 0
	}
}

// TestPeerVectorMatchesReferenceModel drives a PeerVector and the
// rescanning reference model through random signature folds and
// withdrawals (including signatures never folded in, which underflow),
// piggybacked deltas with out-of-range positions, and resets. Dense
// signatures over few bits drive counters through several widths. After
// every step the width, the member count and every counter must agree.
func TestPeerVectorMatchesReferenceModel(t *testing.T) {
	rng := sim.NewRNG(31).Stream("peer-vector-model")
	const m, k = 130, 2 // m is not a multiple of 64: the last word is partial
	v, err := NewPeerVector(m, k)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refPeerVector{counts: make([]uint32, m)}
	randomSig := func() *Filter {
		f := mustFilter(t, m, k)
		density := rng.Float64()
		for p := 0; p < m; p++ {
			if rng.Float64() < density {
				f.SetBit(p)
			}
		}
		return f
	}
	randomPositions := func() []int {
		out := make([]int, rng.Intn(6))
		for i := range out {
			out[i] = rng.Intn(m+20) - 10 // some outside [0, m)
		}
		return out
	}
	var folded []*Filter
	maxWidth := 0
	for step := 0; step < 4000; step++ {
		op := rng.Intn(200)
		switch {
		case op < 70:
			sig := randomSig()
			if err := v.AddSignature(sig); err != nil {
				t.Fatal(err)
			}
			ref.add(sig)
			folded = append(folded, sig)
		case op < 118 && len(folded) > 0:
			i := rng.Intn(len(folded))
			sig := folded[i]
			folded = slices.Delete(folded, i, i+1)
			if err := v.RemoveSignature(sig); err != nil {
				t.Fatal(err)
			}
			ref.remove(sig)
		case op < 124:
			sig := randomSig() // never folded in: withdrawal clamps at zero
			if err := v.RemoveSignature(sig); err != nil {
				t.Fatal(err)
			}
			ref.remove(sig)
		case op < 199:
			ins, evi := randomPositions(), randomPositions()
			v.ApplyDelta(ins, evi)
			ref.applyDelta(ins, evi)
		default:
			v.Reset()
			clear(ref.counts)
			ref.widthBits, ref.members = 0, 0
			folded = folded[:0]
		}
		if v.WidthBits() != ref.widthBits || v.Members() != ref.members {
			t.Fatalf("step %d (op %d): width %d members %d, model width %d members %d",
				step, op, v.WidthBits(), v.Members(), ref.widthBits, ref.members)
		}
		if !slices.Equal(v.counts, ref.counts) {
			t.Fatalf("step %d (op %d): counters differ from the model", step, op)
		}
		maxWidth = max(maxWidth, v.WidthBits())
	}
	if maxWidth < 5 {
		t.Errorf("widest vector had %d-bit counters; the walk should reach at least 5", maxWidth)
	}
}

// TestSignatureMaintenanceAllocs pins the signature layer's per-event
// operations at zero allocations once warmed, and Signature at exactly the
// filter copy it returns.
func TestSignatureMaintenanceAllocs(t *testing.T) {
	const m, k = 10000, 2
	c, err := NewCountingFilter(m, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		c.Insert(e)
	}
	e := uint64(100)
	if got := testing.AllocsPerRun(100, func() {
		c.Insert(e)
		c.Remove(e - 100)
		e++
	}); got != 0 {
		t.Errorf("CountingFilter.Insert+Remove allocs/op = %v, want 0", got)
	}

	sig := c.Signature()
	plain := mustFilter(t, m, k)
	if got, want := testing.AllocsPerRun(100, func() { c.Signature() }),
		testing.AllocsPerRun(100, func() { plain.Clone() }); got != want {
		t.Errorf("CountingFilter.Signature allocs/op = %v, want %v (one filter copy)", got, want)
	}

	v, err := NewPeerVector(m, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddSignature(sig); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := v.AddSignature(sig); err != nil {
			t.Fatal(err)
		}
		if err := v.RemoveSignature(sig); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("PeerVector.AddSignature+RemoveSignature allocs/op = %v, want 0", got)
	}
	ins, evi := []int{1, 500, 9999}, []int{1, 500, 9999}
	if got := testing.AllocsPerRun(100, func() { v.ApplyDelta(ins, evi) }); got != 0 {
		t.Errorf("PeerVector.ApplyDelta allocs/op = %v, want 0", got)
	}
}
