package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

func TestRNGStreamsIndependentAndReproducible(t *testing.T) {
	a1 := NewRNG(42).Stream("mobility")
	a2 := NewRNG(42).Stream("mobility")
	b := NewRNG(42).Stream("workload")
	for i := 0; i < 100; i++ {
		v1, v2 := a1.Float64(), a2.Float64()
		if v1 != v2 {
			t.Fatalf("same stream diverged at %d: %v vs %v", i, v1, v2)
		}
		if v1 == b.Float64() && i > 3 {
			// A few coincidences are possible but a run of equality is not;
			// just ensure the sequences are not identical overall below.
			continue
		}
	}
	// Different purposes must differ somewhere early.
	c, d := NewRNG(7).Stream("x"), NewRNG(7).Stream("y")
	same := true
	for i := 0; i < 10; i++ {
		if c.Float64() != d.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("streams x and y produced identical prefixes")
	}
}

// parentStream is how a stream was derived before Seed existed: from a
// parent generator built and seeded for the purpose.
func parentStream(parent *RNG, name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	const golden = int64(-0x61C8864680B583EB)
	return NewRNG(int64(h.Sum64()) ^ (parent.seed * golden))
}

// TestSeedDerivesRNGStreams pins the derivation-only parent: a Seed's
// streams, and those of a seed it derives, draw exactly as the same
// streams derived from seeded parent generators.
func TestSeedDerivesRNGStreams(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for _, name := range []string{"", "host-0", "host-99", "disc-3"} {
			hosts := parentStream(NewRNG(seed), "hosts")
			pairs := [][2]*RNG{
				{Seed(seed).Stream(name), parentStream(NewRNG(seed), name)},
				{NewRNG(seed).Stream(name), parentStream(NewRNG(seed), name)},
				{Seed(seed).Sub("hosts").Stream(name), parentStream(hosts, name)},
				{NewRNG(int64(Seed(seed).Sub(name))), parentStream(NewRNG(seed), name)},
			}
			for i, p := range pairs {
				for d := 0; d < 5; d++ {
					if a, b := p[0].Int63(), p[1].Int63(); a != b {
						t.Fatalf("seed %d, %q, pair %d: draw %d = %d, want %d", seed, name, i, d, a, b)
					}
				}
			}
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(1).Stream("exp")
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += g.Exp(time.Second)
	}
	mean := float64(sum) / n / float64(time.Second)
	if mean < 0.95 || mean > 1.05 {
		t.Errorf("empirical mean = %v, want ~1.0", mean)
	}
}

func TestRNGUniformBounds(t *testing.T) {
	g := NewRNG(2).Stream("u")
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
		d := g.UniformDuration(time.Second, 5*time.Second)
		if d < time.Second || d >= 5*time.Second {
			t.Fatalf("UniformDuration out of range: %v", d)
		}
	}
	if got := g.Uniform(5, 5); got != 5 {
		t.Errorf("degenerate Uniform = %v, want 5", got)
	}
	if got := g.UniformDuration(time.Second, time.Second); got != time.Second {
		t.Errorf("degenerate UniformDuration = %v, want 1s", got)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(3).Stream("b")
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if p < 0.27 || p > 0.33 {
		t.Errorf("Bool(0.3) empirical p = %v", p)
	}
}

func TestRNGAccessors(t *testing.T) {
	g := NewRNG(77)
	if g.Seed() != 77 {
		t.Errorf("Seed = %d", g.Seed())
	}
	for i := 0; i < 100; i++ {
		if v := g.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if g.Int63() < 0 {
			t.Fatal("Int63 negative")
		}
	}
	perm := g.Perm(8)
	seen := map[int]bool{}
	for _, p := range perm {
		if p < 0 || p >= 8 || seen[p] {
			t.Fatalf("Perm invalid: %v", perm)
		}
		seen[p] = true
	}
	vals := []int{1, 2, 3, 4, 5}
	g.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", vals)
	}
}

func TestRNGExpZeroMean(t *testing.T) {
	g := NewRNG(5)
	if g.Exp(0) != 0 || g.Exp(-time.Second) != 0 {
		t.Error("non-positive mean should yield 0")
	}
}
