package workload

import (
	"math"
	"sort"
	"testing"

	"repro/internal/sim"
)

// searchRank is the inversion the guide table replaced: a binary search of
// the whole CDF.
func searchRank(cdf []float64, u float64) int { return sort.SearchFloat64s(cdf, u) }

// checkRankAt requires the guide-table rank of u, and of u's two float64
// neighbours where they lie in [0, 1], to equal the binary search's.
func checkRankAt(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	for _, x := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
		if x < 0 || x > 1 {
			continue
		}
		if got, want := z.rank(x), searchRank(z.cdf, x); got != want {
			t.Fatalf("n=%d: rank(%v) = %d, binary search %d", len(z.cdf), x, got, want)
		}
	}
}

// TestZipfRankMatchesBinarySearch compares the guide-table inversion with
// the binary search at every CDF entry and bucket edge, and at their
// neighbours, over random sizes and skews.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	rng := sim.NewRNG(1).Stream("zipf-exact")
	sizes := []int{1, 2, 3, 500, 5000}
	for range 40 {
		sizes = append(sizes, 1+rng.Intn(5000))
	}
	for i, n := range sizes {
		theta := rng.Uniform(0, 2)
		if i < 3 {
			theta = float64(i) // 0, 1 and 2 exactly
		}
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Fatal(err)
		}
		checkRankAt(t, z, 0)
		for _, c := range z.cdf {
			checkRankAt(t, z, c)
		}
		for k := range n {
			checkRankAt(t, z, float64(k)/float64(n))
		}
		for range 1000 {
			checkRankAt(t, z, rng.Float64())
		}
	}
}

// TestZipfRankBucketEdge pins the step back: a CDF entry just below a
// bucket edge k/n whose u·n rounds up to k starts the scan in bucket k,
// one rank past the answer.
func TestZipfRankBucketEdge(t *testing.T) {
	cases := 0
	for n := 2; n <= 40; n++ {
		for k := 1; k < n; k++ {
			edge := float64(k) / float64(n)
			below := math.Nextafter(edge, 0)
			if int(below*float64(n)) != k {
				continue // u·n does not round up here
			}
			cases++
			cdf := make([]float64, n)
			for i := range cdf {
				cdf[i] = float64(i+1) / float64(n)
			}
			cdf[k-1] = below
			z := newZipfCDF(cdf)
			if got := z.rank(below); got != k-1 {
				t.Fatalf("n=%d: rank(%v) = %d, want %d", n, below, got, k-1)
			}
			for _, c := range cdf {
				checkRankAt(t, z, c)
			}
		}
	}
	if cases == 0 {
		t.Fatal("no bucket edge where u·n rounds up; the case is untested")
	}
}

// FuzzZipfRank compares the guide-table inversion with the binary search
// at a fuzzer-chosen size, skew and uniform variate.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint16(10), 0.5, 0.8999999999999999)
	f.Add(uint16(1), 0.0, 0.0)
	f.Add(uint16(500), 0.5, 0.5)
	f.Add(uint16(5000), 2.0, 1e-300)
	f.Add(uint16(13), 1.0, 0.23076923076923075)
	f.Fuzz(func(t *testing.T, n16 uint16, theta, u float64) {
		n := int(n16%5000) + 1
		if !(theta >= 0) {
			theta = 0
		}
		u = math.Abs(u)
		if math.IsInf(u, 0) || math.IsNaN(u) {
			u = 0
		}
		u -= math.Floor(u) // into [0, 1)
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Fatal(err)
		}
		checkRankAt(t, z, u)
	})
}

// TestZipfRankAllocs pins a draw at zero allocations.
func TestZipfRankAllocs(t *testing.T) {
	z, err := NewZipf(500, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1).Stream("zipf-allocs")
	if avg := testing.AllocsPerRun(1000, func() { z.Rank(rng) }); avg != 0 {
		t.Errorf("Rank allocates %.1f times, want 0", avg)
	}
}

// BenchmarkZipfRank measures one item draw at the default access range
// (500 items, θ = 0.5).
func BenchmarkZipfRank(b *testing.B) {
	z, err := NewZipf(500, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1).Stream("zipf-bench")
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += z.Rank(rng)
	}
	rankSink = sum
}

var rankSink int
