package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/sim"
)

// sortedQuantile is the quantile Sample computed before selection: sort a
// copy, then interpolate between closest ranks.
func sortedQuantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := slices.Clone(values)
	sort.Float64s(v)
	if q <= 0 {
		return v[0]
	}
	if q >= 1 {
		return v[len(v)-1]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return v[lo]
	}
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// same reports whether two quantiles agree bit for bit, any NaN matching
// any NaN.
func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

var quantileQs = []float64{0, 1e-9, 0.5, 0.95, 0.99, 1}

// checkQuantiles queries one sample of values at every q in quantileQs, in
// several orders, against sort-then-interpolate.
func checkQuantiles(t *testing.T, name string, values []float64, rng *sim.RNG) {
	t.Helper()
	var s Sample
	for _, x := range values {
		s.Add(x)
	}
	for round := 0; round < 4; round++ {
		qs := slices.Clone(quantileQs)
		switch round {
		case 1:
			slices.Reverse(qs)
		case 2, 3:
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		}
		for _, q := range qs {
			if got, want := s.Quantile(q), sortedQuantile(values, q); !same(got, want) {
				t.Fatalf("%s: Quantile(%v) = %v, sort then interpolate %v (order %v, values %v)", name, q, got, want, qs, values)
			}
		}
	}
	if got := s.Count(); got != len(values) {
		t.Fatalf("%s: Count = %d after queries, want %d", name, got, len(values))
	}
}

// TestQuantileMatchesSort compares selection with sort-then-interpolate
// over tiny samples of every mix of ordinary values, duplicates, ±Inf and
// NaN, and over random larger ones, with repeated queries on one sample.
func TestQuantileMatchesSort(t *testing.T) {
	rng := sim.NewRNG(1).Stream("quantile-exact")
	atoms := []float64{-1, 0, 2, 2, 5, math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 1; n <= 3; n++ {
		idx := make([]int, n)
		for {
			values := make([]float64, n)
			for i, a := range idx {
				values[i] = atoms[a]
			}
			checkQuantiles(t, fmt.Sprint(values), values, rng)
			i := 0
			for i < n && idx[i] == len(atoms)-1 {
				idx[i] = 0
				i++
			}
			if i == n {
				break
			}
			idx[i]++
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(400)
		distinct := 1 + rng.Intn(n)
		values := make([]float64, n)
		for i := range values {
			switch r := rng.Intn(40); {
			case r == 0:
				values[i] = math.NaN()
			case r == 1:
				values[i] = math.Inf(1)
			case r == 2:
				values[i] = math.Inf(-1)
			default:
				values[i] = float64(rng.Intn(distinct)) * 0.37
			}
		}
		checkQuantiles(t, fmt.Sprintf("trial %d (n=%d)", trial, n), values, rng)
	}
}

// TestQuantileQuerySequences runs random sequences of queries against one
// sample, with observations added in between, and compares every answer
// with sort-then-interpolate over the observations so far. Runs of rising,
// falling and repeated q reuse the positions earlier queries placed; after
// every query each placed position must still split the sample.
func TestQuantileQuerySequences(t *testing.T) {
	rng := sim.NewRNG(4).Stream("quantile-sequences")
	draw := func(distinct int) float64 {
		switch r := rng.Intn(30); {
		case r == 0:
			return math.NaN()
		case r == 1:
			return math.Inf(1)
		case r == 2:
			return math.Inf(-1)
		default:
			return float64(rng.Intn(distinct)) * 0.37
		}
	}
	for trial := 0; trial < 300; trial++ {
		var s Sample
		var values []float64
		distinct := 1 + rng.Intn(200)
		for n := rng.Intn(300); n > 0; n-- {
			x := draw(distinct)
			s.Add(x)
			values = append(values, x)
		}
		q := rng.Float64()
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(10); {
			case op == 0: // add between queries
				x := draw(distinct)
				s.Add(x)
				values = append(values, x)
				continue
			case op == 1:
				s.Reserve(rng.Intn(4))
				continue
			case op < 4: // rising
				q += rng.Float64() * (1 - q)
			case op < 7: // falling
				q -= rng.Float64() * q
			case op < 8: // repeated
			default:
				q = []float64{0, 1, 0.5, 0.95, 0.99, rng.Float64()}[rng.Intn(6)]
			}
			if got, want := s.Quantile(q), sortedQuantile(values, q); !same(got, want) {
				t.Fatalf("trial %d, step %d: Quantile(%v) = %v, sort then interpolate %v", trial, step, q, got, want)
			}
			v := s.values
			for _, p := range s.placed {
				for i, x := range v {
					if i < p && less(v[p], x) || i > p && less(x, v[p]) {
						t.Fatalf("trial %d, step %d: v[%d] = %v on the wrong side of placed v[%d] = %v", trial, step, i, x, p, v[p])
					}
				}
			}
		}
	}
}

// TestSelectNthAnyBudget checks every rank of ordered, reversed, constant,
// sawtooth and random inputs, with partition budgets from none at all (an
// immediate sort) to ample.
func TestSelectNthAnyBudget(t *testing.T) {
	rng := sim.NewRNG(2).Stream("select")
	const n = 61
	inputs := map[string][]float64{}
	for _, name := range []string{"ascending", "descending", "constant", "sawtooth", "random", "nan-mixed"} {
		v := make([]float64, n)
		for i := range v {
			switch name {
			case "ascending":
				v[i] = float64(i)
			case "descending":
				v[i] = float64(n - i)
			case "constant":
				v[i] = 3
			case "sawtooth":
				v[i] = float64(i % 7)
			case "random":
				v[i] = rng.Float64()
			case "nan-mixed":
				v[i] = float64(rng.Intn(5))
				if rng.Intn(4) == 0 {
					v[i] = math.NaN()
				}
			}
		}
		inputs[name] = v
	}
	for name, in := range inputs {
		want := slices.Clone(in)
		slices.Sort(want)
		for _, rounds := range []int{0, 1, 2, 64} {
			for k := range in {
				v := slices.Clone(in)
				selectNth(v, k, rounds)
				if !same(v[k], want[k]) {
					t.Fatalf("%s, %d rounds: v[%d] = %v, sorted %v", name, rounds, k, v[k], want[k])
				}
				for i, x := range v {
					if i < k && less(v[k], x) || i > k && less(x, v[k]) {
						t.Fatalf("%s, %d rounds, k=%d: v[%d] = %v on the wrong side of %v", name, rounds, k, i, x, v[k])
					}
				}
			}
		}
	}
}

// BenchmarkSampleQuantile measures the P50, P95 and P99 of 800,000
// latencies, one sc-baseline cell's measured requests, each iteration on a
// fresh copy in arrival order.
func BenchmarkSampleQuantile(b *testing.B) {
	const n = 800_000
	rng := sim.NewRNG(1).Stream("quantile-bench")
	src := make([]float64, n)
	for i := range src {
		if rng.Bool(0.4) { // a local hit
			continue
		}
		src[i] = float64(rng.Exp(50_000_000))
	}
	var s Sample
	s.Reserve(n)
	b.ReportAllocs()
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.Reset()
		s.values = append(s.values, src...)
		b.StartTimer()
		sum += s.Quantile(0.5) + s.Quantile(0.95) + s.Quantile(0.99)
	}
	quantileSink = sum
}

var quantileSink float64
