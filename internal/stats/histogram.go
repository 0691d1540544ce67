package stats

import (
	"math"
	"math/bits"
	"slices"
)

// Sample collects observations for exact quantile queries. The simulation
// records one value per measured request (hundreds of thousands), so
// keeping the raw samples is cheap and avoids sketch approximation error.
type Sample struct {
	values []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.values = append(s.values, x)
}

// Reserve makes room for n more observations, so that many Adds do not
// grow the sample one reallocation at a time.
func (s *Sample) Reserve(n int) {
	s.values = slices.Grow(s.values, n)
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, or zero with no observations. Out-of-range q is
// clamped. The ranks are those of slices.Sort, which orders NaN first.
//
// It selects the two order statistics it interpolates between instead of
// sorting the sample, and leaves the observations in an order of its
// choosing.
func (s *Sample) Quantile(q float64) float64 {
	v := s.values
	n := len(v)
	if n == 0 {
		return 0
	}
	// 2·log₂(n) partitions before a sort bound the worst case at
	// O(n log n).
	rounds := 2 * bits.Len(uint(n))
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	selectNth(v, lo, rounds)
	if lo == hi {
		return v[lo]
	}
	// Nothing after lo orders before v[lo], so the next order statistic
	// is the least of the rest.
	selectNth(v[hi:], 0, rounds)
	frac := pos - float64(lo)
	return v[lo]*(1-frac) + v[hi]*frac
}

// Min returns the smallest observation, or zero when empty.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation, or zero when empty.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.values = s.values[:0]
}

// less is slices.Sort's order on float64: NaN before every other value.
func less(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// selectNth reorders v so that v[k] holds the value slices.Sort would put
// there, with nothing before k ordering after it and nothing after k
// before it. It is Hoare's FIND with a median-of-three pivot, finishing
// with one scan for the least or greatest once k ends the range; a range
// still open after the given number of partitions is sorted instead.
func selectNth(v []float64, k, rounds int) {
	for l, r := 0, len(v)-1; l < r; rounds-- {
		if k == l {
			m := l
			for i := l + 1; i <= r; i++ {
				if less(v[i], v[m]) {
					m = i
				}
			}
			v[l], v[m] = v[m], v[l]
			return
		}
		if k == r {
			m := r
			for i := l; i < r; i++ {
				if less(v[m], v[i]) {
					m = i
				}
			}
			v[r], v[m] = v[m], v[r]
			return
		}
		if rounds == 0 {
			slices.Sort(v[l : r+1])
			return
		}
		m := l + (r-l)/2
		if less(v[m], v[l]) {
			v[m], v[l] = v[l], v[m]
		}
		if less(v[r], v[l]) {
			v[r], v[l] = v[l], v[r]
		}
		if less(v[r], v[m]) {
			v[r], v[m] = v[m], v[r]
		}
		// v[l] ≤ p ≤ v[r] stop the first scans; each swap leaves a stop
		// for the next ones.
		p := v[m]
		i, j := l, r
		for i <= j {
			for less(v[i], p) {
				i++
			}
			for less(p, v[j]) {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		// v[l..j] ≤ p ≤ v[i..r], and a position between them holds p.
		switch {
		case k <= j:
			r = j
		case k >= i:
			l = i
		default:
			return
		}
	}
}
