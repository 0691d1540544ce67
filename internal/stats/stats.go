// Package stats provides the incremental statistics the paper relies on:
// Welford's online mean/standard deviation (used for the adaptive P2P search
// timeout τ = τ̄ + ϕ'·σ_τ, per Knuth TAOCP vol. 2), exponentially weighted
// moving averages (used for pairwise distances and data-update intervals),
// and a ratio helper for hit-rate bookkeeping.
package stats

import "math"

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds a sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Count returns the number of samples seen.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean, or zero before any samples.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or zero with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SampleVariance returns the Bessel-corrected (n−1) variance, the unbiased
// estimator used for across-replication confidence reporting; zero with
// fewer than two samples.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// SampleStdDev returns the sample standard deviation (√SampleVariance).
func (w *Welford) SampleStdDev() float64 { return math.Sqrt(w.SampleVariance()) }

// Sum returns mean × count, the total of all samples.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Reset discards all accumulated samples.
func (w *Welford) Reset() { *w = Welford{} }

// EWMA is an exponentially weighted moving average with weight w on the most
// recent observation: v ← w·x + (1−w)·v. Before the first observation it is
// unset; the first observation seeds the average directly, mirroring the
// paper's initialisation of weighted average distances.
type EWMA struct {
	weight float64
	value  float64
	set    bool
}

// NewEWMA returns an average with the given weight on new observations.
// Weights are clamped to [0, 1].
func NewEWMA(weight float64) EWMA {
	if weight < 0 {
		weight = 0
	}
	if weight > 1 {
		weight = 1
	}
	return EWMA{weight: weight}
}

// Observe folds a new observation into the average.
func (e *EWMA) Observe(x float64) {
	if !e.set {
		e.value = x
		e.set = true
		return
	}
	e.value = e.weight*x + (1-e.weight)*e.value
}

// Value returns the current average, or zero before any observation.
func (e EWMA) Value() float64 { return e.value }

// Set reports whether at least one observation has been folded in.
func (e EWMA) Set() bool { return e.set }

// Weight returns the configured weight on new observations.
func (e EWMA) Weight() float64 { return e.weight }

// Ratio returns c / total, or zero when total is zero.
func Ratio(c, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// JainIndex computes Jain's fairness index over a set of non-negative
// values: (Σx)² / (n·Σx²). It is 1 when all values are equal and
// approaches 1/n as one value dominates. An empty or all-zero input yields
// 1 (trivially fair).
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, v := range values {
		sum += v
		sumSq += v * v
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(values)) * sumSq)
}
