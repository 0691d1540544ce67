package bloom

import "testing"

// BenchmarkFilterAdd measures signature insertion (k=2 double hashing).
func BenchmarkFilterAdd(b *testing.B) {
	f, err := NewFilter(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		f.Add(uint64(i))
	}
}

// BenchmarkFilterTest measures the membership probe on a loaded filter.
func BenchmarkFilterTest(b *testing.B) {
	f, err := NewFilter(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(uint64(i % 200))
	}
}

// BenchmarkPeerVectorCovers measures the filtering-mechanism hot path.
func BenchmarkPeerVectorCovers(b *testing.B) {
	v, err := NewPeerVector(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	sig, _ := NewFilter(10000, 2)
	for e := uint64(0); e < 100; e++ {
		sig.Add(e)
	}
	if err := v.AddSignature(sig); err != nil {
		b.Fatal(err)
	}
	search, _ := NewFilter(10000, 2)
	search.Add(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Covers(search)
	}
}

// BenchmarkVLFLEncode measures the compression path for a typical cache
// signature (100 items in 10,000 bits).
func BenchmarkVLFLEncode(b *testing.B) {
	f, err := NewFilter(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	r := FindOptimalR(100, 10000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EncodeVLFL(f, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVLFLBits measures the on-air size computation of a compressed
// signature, which counts codewords instead of encoding them.
func BenchmarkVLFLBits(b *testing.B) {
	f, err := NewFilter(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	r := FindOptimalR(100, 10000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VLFLBits(f, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVLFLDecode measures decompression.
func BenchmarkVLFLDecode(b *testing.B) {
	f, err := NewFilter(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		f.Add(e)
	}
	r := FindOptimalR(100, 10000, 2)
	data, _, err := EncodeVLFL(f, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeVLFL(data, 10000, 2, r); err != nil {
			b.Fatal(err)
		}
	}
}
