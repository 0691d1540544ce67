package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 0.5); err == nil {
		t.Error("NewZipf(0) accepted")
	}
	if _, err := NewZipf(-5, 0.5); err == nil {
		t.Error("NewZipf(-5) accepted")
	}
	if _, err := NewZipf(10, -0.1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NaN theta accepted")
	}
	if _, err := NewZipf(1, 0); err != nil {
		t.Errorf("NewZipf(1, 0): %v", err)
	}
}

func TestZipfUniformWhenThetaZero(t *testing.T) {
	const n, draws = 10, 100000
	z, err := NewZipf(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1).Stream("zipf")
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	for r, c := range counts {
		p := float64(c) / draws
		if math.Abs(p-0.1) > 0.01 {
			t.Errorf("rank %d: p = %.3f, want ~0.1", r, p)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	const n, draws = 100, 100000
	rng := sim.NewRNG(2).Stream("zipf")
	top10Share := func(theta float64) float64 {
		z, err := NewZipf(n, theta)
		if err != nil {
			t.Fatal(err)
		}
		hot := 0
		for i := 0; i < draws; i++ {
			if z.Rank(rng) < 10 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	flat := top10Share(0)
	skewed := top10Share(1)
	if flat > 0.13 {
		t.Errorf("theta=0 top-10 share = %.3f, want ~0.1", flat)
	}
	if skewed < 0.5 {
		t.Errorf("theta=1 top-10 share = %.3f, want > 0.5", skewed)
	}
}

func TestZipfRankOrderingMonotone(t *testing.T) {
	z, err := NewZipf(50, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < z.N(); r++ {
		if z.Prob(r) > z.Prob(r-1)+1e-12 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", r, z.Prob(r), r-1, z.Prob(r-1))
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z, err := NewZipf(37, 0.63)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r := 0; r < z.N(); r++ {
		sum += z.Prob(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum of probs = %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(z.N()) != 0 {
		t.Error("out-of-range Prob non-zero")
	}
}

// Property: ranks drawn are always within [0, n).
func TestZipfRankInRangeProperty(t *testing.T) {
	prop := func(nRaw uint8, thetaRaw uint8, seed int64) bool {
		n := int(nRaw)%200 + 1
		theta := float64(thetaRaw) / 255
		z, err := NewZipf(n, theta)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		for i := 0; i < 100; i++ {
			r := z.Rank(rng)
			if r < 0 || r >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAccessRangeValidation(t *testing.T) {
	rng := sim.NewRNG(3).Stream("ar")
	if _, err := NewAccessRange(0, 0, 100, 0.5, rng); err == nil {
		t.Error("zero-size range accepted")
	}
	if _, err := NewAccessRange(-1, 10, 100, 0.5, rng); err == nil {
		t.Error("negative first accepted")
	}
	if _, err := NewAccessRange(95, 10, 100, 0.5, rng); err == nil {
		t.Error("range overflowing catalog accepted")
	}
	if _, err := NewAccessRange(90, 10, 100, 0.5, rng); err != nil {
		t.Errorf("valid boundary range rejected: %v", err)
	}
}

func TestAccessRangeDrawsWithinWindow(t *testing.T) {
	rng := sim.NewRNG(4).Stream("ar")
	ar, err := NewAccessRange(500, 100, 10000, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		id := ar.Next(rng)
		if id < 500 || id >= 600 {
			t.Fatalf("drew item %d outside [500, 600)", id)
		}
		if !ar.Contains(id) {
			t.Fatalf("Contains(%d) = false for drawn item", id)
		}
	}
	if ar.Contains(499) || ar.Contains(600) {
		t.Error("Contains true for out-of-window item")
	}
	if ar.Size() != 100 {
		t.Errorf("Size = %d", ar.Size())
	}
}

func TestAccessRangeShuffleGivesGroupsDistinctHotSets(t *testing.T) {
	// Two ranges over the same window seeded differently should have
	// different hottest items with high probability.
	a, err := NewAccessRange(0, 100, 1000, 1, sim.NewRNG(1).Stream("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewAccessRange(0, 100, 1000, 1, sim.NewRNG(2).Stream("b"))
	if err != nil {
		t.Fatal(err)
	}
	hottest := func(ar *AccessRange, seed int64) ItemID {
		rng := sim.NewRNG(seed).Stream("draw")
		counts := map[ItemID]int{}
		for i := 0; i < 5000; i++ {
			counts[ar.Next(rng)]++
		}
		ids := make([]ItemID, 0, len(counts))
		for id := range counts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var best ItemID
		bestN := -1
		for _, id := range ids {
			if n := counts[id]; n > bestN {
				best, bestN = id, n
			}
		}
		return best
	}
	if hottest(a, 9) == hottest(b, 9) {
		t.Log("hottest items coincide (possible but unlikely); not failing hard")
	}
}

func TestGeneratorValidation(t *testing.T) {
	rng := sim.NewRNG(5).Stream("g")
	ar, err := NewAccessRange(0, 10, 100, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGenerator(nil, time.Second, rng); err == nil {
		t.Error("nil access range accepted")
	}
	if _, err := NewGenerator(ar, 0, rng); err == nil {
		t.Error("zero interarrival accepted")
	}
}

func TestGeneratorInterarrivalMean(t *testing.T) {
	rng := sim.NewRNG(6).Stream("g")
	ar, err := NewAccessRange(0, 10, 100, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(ar, time.Second, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		id, think := g.Next()
		if id < 0 || id >= 10 {
			t.Fatalf("item %d out of range", id)
		}
		sum += think
	}
	mean := sum.Seconds() / n
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("mean interarrival = %.3fs, want ~1s", mean)
	}
}

func TestShiftPreservesItemSet(t *testing.T) {
	rng := sim.NewRNG(7).Stream("shift")
	ar, err := NewAccessRange(100, 50, 1000, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	before := map[ItemID]bool{}
	for _, id := range ar.items {
		before[id] = true
	}
	ar.Shift(0.3, rng)
	if len(ar.items) != 50 {
		t.Fatalf("item count changed: %d", len(ar.items))
	}
	for _, id := range ar.items {
		if !before[id] {
			t.Fatalf("Shift introduced foreign item %d", id)
		}
	}
}

func TestShiftChangesHotItem(t *testing.T) {
	rng := sim.NewRNG(8).Stream("shift")
	ar, err := NewAccessRange(0, 100, 1000, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	hotBefore := ar.items[0]
	// Full shift guarantees every slot changes (rotation derangement).
	ar.Shift(1, rng)
	if ar.items[0] == hotBefore {
		t.Error("full shift left the hottest slot unchanged")
	}
}

func TestShiftClampsAndZero(t *testing.T) {
	rng := sim.NewRNG(9).Stream("shift")
	ar, err := NewAccessRange(0, 10, 100, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]ItemID{}, ar.items...)
	ar.Shift(0, rng) // no-op
	for i := range orig {
		if ar.items[i] != orig[i] {
			t.Fatal("Shift(0) changed mapping")
		}
	}
	ar.Shift(5, rng) // clamps to 1, must not panic or lose items
	seen := map[ItemID]bool{}
	for _, id := range ar.items {
		seen[id] = true
	}
	if len(seen) != 10 {
		t.Error("clamped shift lost items")
	}
}
