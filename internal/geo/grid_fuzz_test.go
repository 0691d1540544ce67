package geo

import (
	"math"
	"testing"
)

// FuzzGridQuery drives the grid with fuzzer-chosen geometry and checks the
// result against the brute-force oracle. The raw float64 inputs are used as
// given (after making the cell size valid), so the fuzzer is free to explore
// NaN, infinities, subnormals, and coordinates that overflow the int32 cell
// space; the only invariants are "no panic" and "equal to the pairwise scan".
func FuzzGridQuery(f *testing.F) {
	// Seed corpus: cell-boundary positions, negative coordinates, the
	// inclusive r boundary, huge radii over a small world, and NaN/Inf.
	f.Add(10.0, 0.0, 0.0, 5.0, 10.0, 10.0, -10.0, -10.0, 20.0, 0.0)
	f.Add(10.0, 3.0, 4.0, 5.0, 0.0, 0.0, 10.0, 0.0, 10.0, 10.0)
	f.Add(1.0, -0.5, -0.5, 1e12, -1e6, 1e6, 1e6, -1e6, 0.0, 0.0)
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0)
	f.Add(2.0, math.NaN(), 0.0, math.Inf(1), math.Inf(-1), 0.0, 0.0, math.NaN(), 1.0, -1.0)
	f.Add(0.25, -2.0, -2.0, 2.0, -2.25, -1.75, 2.25, 1.75, -0.25, 0.25)
	// Hosts in cells 64 apart, which share a bucket of the cell table, and
	// cells clamped to the ends of the int32 cell space.
	f.Add(10.0, 5.0, 5.0, 1.0, 5.0, 5.0, 645.0, 5.0, -635.0, 645.0)
	f.Add(1.0, 1e300, 1e300, 1.0, 1e300, 1e300, -1e300, -1e300, math.Inf(1), math.Inf(-1))
	f.Add(1.0, math.Inf(-1), 0.0, math.Inf(1), 1e300, -1e300, 0.0, math.Inf(1), -1e300, 0.5)

	f.Fuzz(func(t *testing.T, cell, px, py, r, x0, y0, x1, y1, x2, y2 float64) {
		if !(cell > 0) || math.IsInf(cell, 1) {
			cell = 1
		}
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatalf("NewGrid(%v): %v", cell, err)
		}
		hosts := []Point{{X: x0, Y: y0}, {X: x1, Y: y1}, {X: x2, Y: y2}}
		present := []bool{true, true, true}
		for i, h := range hosts {
			g.Upsert(GridID(i), h)
		}
		p := Point{X: px, Y: py}
		got := queryRange(g, p, r)
		want := bruteRange(hosts, present, p, r)
		if !sameIDs(got, want) {
			t.Fatalf("grid/brute divergence cell=%v p=%v r=%v hosts=%v:\n grid  = %v\n brute = %v",
				cell, p, r, hosts, got, want)
		}
		// Move the middle host to the query point and the first one 64
		// cells along x, into an aliased cell, and re-check: moves must
		// keep the index consistent under arbitrary values.
		hosts[1] = p
		g.Upsert(1, p)
		hosts[0].X += 64 * cell
		g.Upsert(0, hosts[0])
		got = queryRange(g, p, r)
		want = bruteRange(hosts, present, p, r)
		if !sameIDs(got, want) {
			t.Fatalf("post-churn divergence cell=%v p=%v r=%v hosts=%v:\n grid  = %v\n brute = %v",
				cell, p, r, hosts, got, want)
		}
	})
}
