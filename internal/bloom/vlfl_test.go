package bloom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestCodewordWidth(t *testing.T) {
	tests := []struct {
		r       int
		want    int
		wantErr bool
	}{
		{1, 1, false},
		{3, 2, false},
		{7, 3, false},
		{15, 4, false},
		{255, 8, false},
		{0, 0, true},
		{2, 0, true},
		{6, 0, true},
		{-3, 0, true},
	}
	for _, tt := range tests {
		got, err := codewordWidth(tt.r)
		if (err != nil) != tt.wantErr {
			t.Errorf("codewordWidth(%d) err = %v, wantErr %v", tt.r, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("codewordWidth(%d) = %d, want %d", tt.r, got, tt.want)
		}
	}
}

func TestVLFLRoundTripSparse(t *testing.T) {
	f := mustFilter(t, 10000, 2)
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	for _, r := range []int{1, 3, 7, 15, 63, 255} {
		data, nbits, err := EncodeVLFL(f, r)
		if err != nil {
			t.Fatalf("R=%d encode: %v", r, err)
		}
		if nbits > len(data)*8 {
			t.Fatalf("R=%d nbits %d exceeds buffer", r, nbits)
		}
		got, err := DecodeVLFL(data, 10000, 2, r)
		if err != nil {
			t.Fatalf("R=%d decode: %v", r, err)
		}
		if !got.Equal(f) {
			t.Fatalf("R=%d round trip mismatch", r)
		}
	}
}

func TestVLFLRoundTripEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		setup func(f *Filter)
	}{
		{"empty", func(*Filter) {}},
		{"all ones", func(f *Filter) {
			for p := 0; p < f.M(); p++ {
				f.SetBit(p)
			}
		}},
		{"leading one", func(f *Filter) { f.SetBit(0) }},
		{"trailing one", func(f *Filter) { f.SetBit(f.M() - 1) }},
		{"both ends", func(f *Filter) { f.SetBit(0); f.SetBit(f.M() - 1) }},
		{"adjacent ones", func(f *Filter) { f.SetBit(10); f.SetBit(11); f.SetBit(12) }},
		{"run exactly R", func(f *Filter) { f.SetBit(7) }},
		{"run R plus one", func(f *Filter) { f.SetBit(8) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := mustFilter(t, 97, 2) // deliberately not a multiple of 64
			c.setup(f)
			for _, r := range []int{1, 7, 15} {
				data, _, err := EncodeVLFL(f, r)
				if err != nil {
					t.Fatalf("R=%d encode: %v", r, err)
				}
				got, err := DecodeVLFL(data, 97, 2, r)
				if err != nil {
					t.Fatalf("R=%d decode: %v", r, err)
				}
				if !got.Equal(f) {
					t.Fatalf("R=%d round trip mismatch", r)
				}
			}
		})
	}
}

func TestVLFLRejectsBadR(t *testing.T) {
	f := mustFilter(t, 100, 2)
	if _, _, err := EncodeVLFL(f, 6); err == nil {
		t.Error("EncodeVLFL accepted R=6")
	}
	if _, err := DecodeVLFL(nil, 100, 2, 5); err == nil {
		t.Error("DecodeVLFL accepted R=5")
	}
}

func TestVLFLDecodeTruncatedStream(t *testing.T) {
	f := mustFilter(t, 1000, 2)
	f.Add(999)
	data, _, err := EncodeVLFL(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1 {
		if _, err := DecodeVLFL(data[:1], 1000, 2, 7); err == nil {
			t.Error("truncated stream decoded without error")
		}
	}
}

func TestVLFLCompressesSparseSignatures(t *testing.T) {
	// A 10,000-bit signature holding 100 items × 2 hashes has ~2% ones;
	// VLFL should compress it well below the raw size.
	f := mustFilter(t, 10000, 2)
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	r := FindOptimalR(100, 10000, 2)
	_, nbits, err := EncodeVLFL(f, r)
	if err != nil {
		t.Fatal(err)
	}
	if nbits >= 10000 {
		t.Errorf("compressed size %d bits >= raw 10000", nbits)
	}
	if nbits > 4000 {
		t.Errorf("compressed size %d bits, expected < 4000 for 2%% density", nbits)
	}
}

func TestZeroProbability(t *testing.T) {
	if got := ZeroProbability(0, 100, 2); got != 1 {
		t.Errorf("phi with no items = %v, want 1", got)
	}
	got := ZeroProbability(100, 10000, 2)
	want := math.Pow(1-1.0/10000, 200)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("phi = %v, want %v", got, want)
	}
	if ZeroProbability(10, 0, 2) != 0 {
		t.Error("degenerate m should give 0")
	}
}

func TestFindOptimalRMonotoneInDensity(t *testing.T) {
	// Sparser signatures (fewer items) should prefer larger R.
	sparse := FindOptimalR(10, 10000, 2)
	dense := FindOptimalR(2000, 10000, 2)
	if sparse <= dense {
		t.Errorf("optimal R sparse=%d dense=%d; want sparse > dense", sparse, dense)
	}
	if sparse < 1 || dense < 1 {
		t.Error("FindOptimalR returned < 1")
	}
	// R must always be 2^l - 1.
	for _, r := range []int{sparse, dense} {
		if (r+1)&r != 0 {
			t.Errorf("R=%d is not 2^l - 1", r)
		}
	}
}

func TestShouldCompress(t *testing.T) {
	// Sparse: compression worthwhile.
	ok, r := ShouldCompress(100, 10000, 2)
	if !ok {
		t.Error("sparse signature should compress")
	}
	if r < 3 {
		t.Errorf("sparse optimal R = %d, want >= 3", r)
	}
	// Completely saturated: compression useless.
	ok, _ = ShouldCompress(100000, 100, 8)
	if ok {
		t.Error("saturated signature should not compress")
	}
}

func TestExpectedCompressedBitsReasonable(t *testing.T) {
	est := ExpectedCompressedBits(100, 10000, 2)
	f := mustFilter(t, 10000, 2)
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	r := FindOptimalR(100, 10000, 2)
	_, actual, err := EncodeVLFL(f, r)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(actual) / float64(est)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("actual %d vs expected %d bits (ratio %.2f)", actual, est, ratio)
	}
}

// Property: VLFL round-trips any filter contents for any valid R.
func TestVLFLRoundTripProperty(t *testing.T) {
	prop := func(elems []uint64, rExp uint8, mRaw uint16) bool {
		m := int(mRaw)%2000 + 10
		r := 1<<(int(rExp)%8+1) - 1
		f, err := NewFilter(m, 2)
		if err != nil {
			return false
		}
		for _, e := range elems {
			f.Add(e)
		}
		data, _, err := EncodeVLFL(f, r)
		if err != nil {
			return false
		}
		got, err := DecodeVLFL(data, m, 2, r)
		if err != nil {
			return false
		}
		return got.Equal(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVLFLBitsMatchesEncode requires VLFLBits to equal EncodeVLFL's bit
// count on every filter size from 1 to 700 bits (most not a multiple of
// 64), at densities from all-zero to all-one, for R = 1, 3, …, 1023.
func TestVLFLBitsMatchesEncode(t *testing.T) {
	rng := sim.NewRNG(83).Stream("vlfl-bits")
	for m := 1; m <= 700; m++ {
		for _, density := range []float64{0, 0.01, 0.1, 0.5, 0.9, 1} {
			f := mustFilter(t, m, 2)
			for p := 0; p < m; p++ {
				if rng.Float64() < density {
					f.SetBit(p)
				}
			}
			for l := 1; l <= 10; l++ {
				r := 1<<l - 1
				_, want, err := EncodeVLFL(f, r)
				if err != nil {
					t.Fatalf("m=%d R=%d encode: %v", m, r, err)
				}
				got, err := VLFLBits(f, r)
				if err != nil {
					t.Fatalf("m=%d R=%d: %v", m, r, err)
				}
				if got != want {
					t.Fatalf("m=%d density=%v R=%d: VLFLBits %d, EncodeVLFL %d bits", m, density, r, got, want)
				}
			}
		}
	}
	f := mustFilter(t, 100, 2)
	for _, r := range []int{-1, 0, 2, 6, 1022} {
		if _, err := VLFLBits(f, r); err == nil {
			t.Errorf("VLFLBits accepted R=%d", r)
		}
	}
}
