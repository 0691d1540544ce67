package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesNaive(t *testing.T) {
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, s := range samples {
		w.Add(s)
	}
	if w.Count() != uint64(len(samples)) {
		t.Fatalf("Count = %d", w.Count())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := w.Variance(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := w.StdDev(); math.Abs(got-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := w.Sum(); math.Abs(got-40) > 1e-9 {
		t.Errorf("Sum = %v, want 40", got)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("zero-value Welford not all-zero")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 {
		t.Errorf("Mean after one sample = %v", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("Variance after one sample = %v, want 0", w.Variance())
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	samples := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, s := range samples {
		w.Add(s)
	}
	// Population variance 4 over n=8 → sample variance 32/7.
	if got, want := w.SampleVariance(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("SampleVariance = %v, want %v", got, want)
	}
	if got, want := w.SampleStdDev(), math.Sqrt(32.0/7); math.Abs(got-want) > 1e-12 {
		t.Errorf("SampleStdDev = %v, want %v", got, want)
	}
	// Fewer than two samples has no spread estimate.
	var one Welford
	one.Add(42)
	if one.SampleVariance() != 0 || one.SampleStdDev() != 0 {
		t.Error("sample variance of a single sample must be 0")
	}
	// Bessel correction: sample variance ≥ population variance always.
	if err := quick.Check(func(xs []float64) bool {
		var q Welford
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e100 { // keep m2 finite
				return true
			}
			q.Add(x)
		}
		return q.SampleVariance() >= q.Variance()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordReset(t *testing.T) {
	var w Welford
	w.Add(1)
	w.Add(2)
	w.Reset()
	if w.Count() != 0 || w.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

// Property: Welford mean/variance agree with the two-pass formulas.
func TestWelfordProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		variance := m2 / float64(len(raw))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-variance) < 1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Set() {
		t.Error("fresh EWMA reports Set")
	}
	e.Observe(10)
	if !e.Set() {
		t.Error("EWMA not Set after observation")
	}
	if e.Value() != 10 {
		t.Errorf("Value after seed = %v, want 10", e.Value())
	}
}

func TestEWMAUpdateRule(t *testing.T) {
	e := NewEWMA(0.25)
	e.Observe(100)
	e.Observe(0)
	// 0.25*0 + 0.75*100 = 75
	if got := e.Value(); math.Abs(got-75) > 1e-12 {
		t.Errorf("Value = %v, want 75", got)
	}
	e.Observe(75)
	if got := e.Value(); math.Abs(got-75) > 1e-12 {
		t.Errorf("Value = %v, want 75 (fixed point)", got)
	}
}

func TestEWMAWeightClamping(t *testing.T) {
	if w := NewEWMA(-1).Weight(); w != 0 {
		t.Errorf("weight = %v, want 0", w)
	}
	if w := NewEWMA(2).Weight(); w != 1 {
		t.Errorf("weight = %v, want 1", w)
	}
	e := NewEWMA(1)
	e.Observe(5)
	e.Observe(9)
	if e.Value() != 9 {
		t.Errorf("weight-1 EWMA = %v, want 9 (tracks latest)", e.Value())
	}
}

// Property: EWMA value always lies within the min/max envelope of
// observations.
func TestEWMAEnvelopeProperty(t *testing.T) {
	prop := func(weightRaw uint8, obs []int16) bool {
		if len(obs) == 0 {
			return true
		}
		weight := float64(weightRaw) / 255
		e := NewEWMA(weight)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, o := range obs {
			x := float64(o)
			e.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCounterAndRatio(t *testing.T) {
	if got := Ratio(5, 10); got != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio with zero total = %v, want 0", got)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Count() != 0 {
		t.Error("empty sample not zero")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.95); math.Abs(got-95.05) > 1e-9 {
		t.Errorf("p95 = %v, want 95.05", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Error("Min/Max wrong")
	}
	// Clamping.
	if s.Quantile(-1) != 1 || s.Quantile(2) != 100 {
		t.Error("out-of-range q not clamped")
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset left values")
	}
}

func TestSampleUnsortedInsertions(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 9, 3, 7} {
		s.Add(v)
	}
	if got := s.Quantile(0.5); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	// Adding after a query re-sorts lazily.
	s.Add(0)
	if got := s.Min(); got != 0 {
		t.Errorf("min after late add = %v", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestSampleQuantileMonotoneProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var s Sample
		for _, v := range raw {
			s.Add(float64(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < prev-1e-9 || v < s.Min()-1e-9 || v > s.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := JainIndex([]float64{0, 0, 0}); got != 1 {
		t.Errorf("all-zero = %v", got)
	}
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal = %v, want 1", got)
	}
	// One dominant value of n: index -> 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("dominant = %v, want 0.25", got)
	}
	// Bounds for arbitrary input.
	vals := []float64{1, 2, 3, 4, 5}
	got := JainIndex(vals)
	if got <= 1.0/5 || got > 1 {
		t.Errorf("index %v outside (1/n, 1]", got)
	}
}
