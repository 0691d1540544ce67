package bloom

import (
	"math"
	"testing"
	"testing/quick"
)

func mustFilter(t *testing.T, m, k int) *Filter {
	t.Helper()
	f, err := NewFilter(m, k)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFilterValidation(t *testing.T) {
	if _, err := NewFilter(0, 2); err == nil {
		t.Error("zero-bit filter accepted")
	}
	if _, err := NewFilter(100, 0); err == nil {
		t.Error("zero-hash filter accepted")
	}
	f := mustFilter(t, 100, 2)
	if f.M() != 100 || f.K() != 2 {
		t.Errorf("geometry = (%d, %d)", f.M(), f.K())
	}
}

func TestFilterNoFalseNegatives(t *testing.T) {
	f := mustFilter(t, 1000, 3)
	for e := uint64(0); e < 200; e++ {
		f.Add(e)
	}
	for e := uint64(0); e < 200; e++ {
		if !f.Test(e) {
			t.Fatalf("false negative for %d", e)
		}
	}
}

func TestFilterAbsentMostlyNegative(t *testing.T) {
	f := mustFilter(t, 10000, 2)
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	fp := 0
	const probes = 10000
	for e := uint64(1 << 20); e < 1<<20+probes; e++ {
		if f.Test(e) {
			fp++
		}
	}
	rate := float64(fp) / probes
	theory := FalsePositiveRate(10000, 2, 100)
	if rate > theory*3+0.01 {
		t.Errorf("false positive rate %.4f far above theoretical %.4f", rate, theory)
	}
}

func TestFilterPositionsDeterministicAndInRange(t *testing.T) {
	for e := uint64(0); e < 100; e++ {
		a, b := mustFilter(t, 997, 5), mustFilter(t, 997, 5)
		a.Add(e)
		b.Add(e)
		if !a.Equal(b) {
			t.Fatalf("probe positions not deterministic for %d", e)
		}
		if n := a.OnesCount(); n < 1 || n > 5 {
			t.Fatalf("element %d set %d bits, want 1 to 5", e, n)
		}
		if last := a.Words()[len(a.Words())-1]; last>>(997%64) != 0 {
			t.Fatalf("element %d set a bit at or past M = 997", e)
		}
	}
}

func TestFilterUnionAndCovers(t *testing.T) {
	a := mustFilter(t, 500, 2)
	b := mustFilter(t, 500, 2)
	a.Add(1)
	a.Add(2)
	b.Add(3)
	union := a.Clone()
	if err := union.Union(b); err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{1, 2, 3} {
		if !union.Test(e) {
			t.Errorf("union missing %d", e)
		}
	}
	if !union.Covers(a) || !union.Covers(b) {
		t.Error("union does not cover operands")
	}
	if a.Covers(union) && union.OnesCount() > a.OnesCount() {
		t.Error("smaller filter covers strictly larger union")
	}
	// Geometry mismatch.
	c := mustFilter(t, 400, 2)
	if err := union.Union(c); err == nil {
		t.Error("union with mismatched geometry accepted")
	}
	if union.Covers(c) {
		t.Error("Covers true across mismatched geometry")
	}
}

func TestFilterSearchSignatureMatch(t *testing.T) {
	// The paper's filtering test: search signature AND peer signature ==
	// search signature.
	peer := mustFilter(t, 2000, 2)
	for e := uint64(0); e < 50; e++ {
		peer.Add(e)
	}
	search := mustFilter(t, 2000, 2)
	search.Add(25)
	if !peer.Covers(search) {
		t.Error("peer signature does not cover cached item's search signature")
	}
	missing := mustFilter(t, 2000, 2)
	missing.Add(999999)
	if peer.Covers(missing) {
		t.Log("false positive on missing item (possible, not fatal)")
	}
}

func TestFilterResetCloneEqual(t *testing.T) {
	f := mustFilter(t, 300, 2)
	f.Add(7)
	g := f.Clone()
	if !f.Equal(g) {
		t.Error("clone not equal")
	}
	g.Add(8)
	if f.Equal(g) {
		t.Error("diverged clone still equal")
	}
	f.Reset()
	if f.OnesCount() != 0 {
		t.Error("reset left bits set")
	}
	if f.Equal(nil) {
		t.Error("Equal(nil) = true")
	}
}

// TestFilterSetBitIgnoresOutOfRange: positions past M in the last word,
// beyond the last word or negative are ignored, so the bits past M stay
// zero for Words, Covers, OnesCount and the peer vector's word walks.
func TestFilterSetBitIgnoresOutOfRange(t *testing.T) {
	f := mustFilter(t, 100, 2)
	for _, p := range []int{100, 127, 128, -1} {
		f.SetBit(p)
		if n := f.OnesCount(); n != 0 {
			t.Fatalf("OnesCount = %d after SetBit(%d) on M = 100", n, p)
		}
	}
	f.SetBit(99)
	for _, p := range []int{100, 128, -1} {
		f.ClearBit(p)
	}
	if !f.Bit(99) || f.OnesCount() != 1 {
		t.Errorf("out-of-range ClearBit disturbed bit 99 (OnesCount %d)", f.OnesCount())
	}
	v, err := NewPeerVector(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.AddSignature(f); err != nil {
		t.Fatal(err)
	}
	if got := v.Signature(); !got.Equal(f) {
		t.Errorf("peer vector folded %d bits, want only bit 99", got.OnesCount())
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	if got := FalsePositiveRate(1000, 2, 0); got != 0 {
		t.Errorf("empty filter fp rate = %v", got)
	}
	got := FalsePositiveRate(10, 1, 1000)
	if got < 0.99 {
		t.Errorf("saturated filter fp rate = %v, want ~1", got)
	}
	if FalsePositiveRate(0, 2, 10) != 0 || FalsePositiveRate(10, 0, 10) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestOptimalK(t *testing.T) {
	// k* = ln2 * m/n.
	if got := OptimalK(10000, 1000); got != int(math.Round(math.Ln2*10)) {
		t.Errorf("OptimalK(10000, 1000) = %d", got)
	}
	if got := OptimalK(10, 10000); got != 1 {
		t.Errorf("OptimalK floor = %d, want 1", got)
	}
	if got := OptimalK(0, 5); got != 1 {
		t.Errorf("OptimalK degenerate = %d, want 1", got)
	}
}

// Property: anything added is always found (no false negatives), and Union
// preserves membership of both sides.
func TestBloomProperties(t *testing.T) {
	noFalseNeg := func(elems []uint64) bool {
		f, err := NewFilter(4096, 3)
		if err != nil {
			return false
		}
		for _, e := range elems {
			f.Add(e)
		}
		for _, e := range elems {
			if !f.Test(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(noFalseNeg, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("no-false-negative: %v", err)
	}

	unionMembership := func(as, bs []uint64) bool {
		fa, _ := NewFilter(4096, 2)
		fb, _ := NewFilter(4096, 2)
		for _, e := range as {
			fa.Add(e)
		}
		for _, e := range bs {
			fb.Add(e)
		}
		u := fa.Clone()
		if err := u.Union(fb); err != nil {
			return false
		}
		for _, e := range as {
			if !u.Test(e) {
				return false
			}
		}
		for _, e := range bs {
			if !u.Test(e) {
				return false
			}
		}
		return u.Covers(fa) && u.Covers(fb)
	}
	if err := quick.Check(unionMembership, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("union membership: %v", err)
	}
}
