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
	// placed lists, ascending, the positions earlier selections put in
	// their final place: everything before such a position orders no
	// later than its value and everything after no earlier. Add,
	// Reserve and Reset forget them.
	placed []int
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.values = append(s.values, x)
	s.placed = s.placed[:0]
}

// Reserve makes room for n more observations, so that many Adds do not
// grow the sample one reallocation at a time.
func (s *Sample) Reserve(n int) {
	s.values = slices.Grow(s.values, n)
	s.placed = s.placed[:0]
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.values) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks, or zero with no observations. Out-of-range q is
// clamped. The ranks are those of slices.Sort, which orders NaN first.
//
// It selects the two order statistics it interpolates between instead of
// sorting the sample, and leaves the observations in an order of its
// choosing. A later call selects only between the positions earlier
// calls placed around its rank.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	pos := min(max(q, 0), 1) * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	s.place(lo)
	if lo == hi {
		return s.values[lo]
	}
	s.place(hi)
	frac := pos - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac
}

// place puts the value slices.Sort would put at position k there,
// selecting only in the range between the placed positions around k, and
// records k as placed.
func (s *Sample) place(k int) {
	i, found := slices.BinarySearch(s.placed, k)
	if found {
		return
	}
	l, r := 0, len(s.values)
	if i > 0 {
		l = s.placed[i-1] + 1
	}
	if i < len(s.placed) {
		r = s.placed[i]
	}
	// 2·log₂ of the range's length in partitions before a sort bound the
	// worst case at O(n log n).
	selectNth(s.values[l:r], k-l, 2*bits.Len(uint(r-l)))
	s.placed = slices.Insert(s.placed, i, k)
}

// Min returns the smallest observation, or zero when empty.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation, or zero when empty.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Reset discards all observations.
func (s *Sample) Reset() {
	s.values = s.values[:0]
	s.placed = s.placed[:0]
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
