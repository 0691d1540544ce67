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

// BenchmarkPeerVectorCoversElement measures the filtering-mechanism hot
// path: every local miss asks the peer vector (one member signature of
// 100 items in 10,000 bits) whether it covers the item, k = 2 probes for
// a covered one. Every item asked for here is covered.
func BenchmarkPeerVectorCoversElement(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !v.CoversElement(uint64(i % 100)) {
			b.Fatal("peer vector does not cover an inserted item")
		}
	}
}

// BenchmarkPeerVectorAddSignature measures folding a member's signature
// (100 items in 10,000 bits) into a peer vector; each op also withdraws it
// again, so the counters stay bounded.
func BenchmarkPeerVectorAddSignature(b *testing.B) {
	v, err := NewPeerVector(10000, 2)
	if err != nil {
		b.Fatal(err)
	}
	sig, _ := NewFilter(10000, 2)
	for e := uint64(0); e < 100; e++ {
		sig.Add(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.AddSignature(sig); err != nil {
			b.Fatal(err)
		}
		if err := v.RemoveSignature(sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountingFilterSignature measures materialising a full cache
// signature (100 items in 10,000 counters) for a signature reply.
func BenchmarkCountingFilterSignature(b *testing.B) {
	c, err := NewCountingFilter(10000, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		c.Insert(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSig = c.Signature()
	}
}

var benchSig *Filter

// BenchmarkCountingFilterDelta measures one cache replacement in a
// 100-item cache (evict the oldest item, admit a new one) followed by
// reading the piggyback lists for the next broadcast into reused buffers.
func BenchmarkCountingFilterDelta(b *testing.B) {
	c, err := NewCountingFilter(10000, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 100; e++ {
		c.Insert(e)
	}
	benchIns, benchEvi = c.Delta(nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := uint64(100 + i)
		c.Remove(e - 100)
		c.Insert(e)
		benchIns, benchEvi = c.Delta(benchIns[:0], benchEvi[:0])
	}
}

var benchIns, benchEvi []int

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
