package geo

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// bruteRange is the reference oracle: the O(N) pairwise scan the grid
// replaces. IDs come back ascending because hosts is indexed in order.
func bruteRange(hosts []Point, present []bool, p Point, r float64) []GridID {
	var out []GridID
	for i, q := range hosts {
		if present[i] && WithinRange(p, q, r) {
			out = append(out, GridID(i))
		}
	}
	return out
}

func sameIDs(a, b []GridID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEquivalence queries the grid and the brute-force oracle at p/r and
// fails the test if they disagree. It then repeats the query, which must
// return the same IDs: a query leaves its hit bitmap zeroed.
func checkEquivalence(t *testing.T, g *Grid, hosts []Point, present []bool, p Point, r float64) {
	t.Helper()
	got := queryRange(g, p, r)
	want := bruteRange(hosts, present, p, r)
	if !sameIDs(got, want) {
		t.Fatalf("grid/brute divergence at p=%v r=%v cell=%v:\n grid  = %v\n brute = %v",
			p, r, g.cell, got, want)
	}
	if again := queryRange(g, p, r); !sameIDs(again, got) {
		t.Fatalf("repeated query at p=%v r=%v differs:\n first  = %v\n second = %v", p, r, got, again)
	}
}

// TestGridMatchesBruteForceRandomized is the core property: for randomized
// host counts, cell sizes, ranges, and position snapshots, a range query
// deep-equals the brute-force WithinRange scan.
func TestGridMatchesBruteForceRandomized(t *testing.T) {
	rng := sim.NewRNG(7).Stream("grid-prop")
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) // includes the zero-host and one-host cases
		cell := rng.Uniform(0.5, 300)
		world := rng.Uniform(10, 2000)
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		hosts := make([]Point, n)
		present := make([]bool, n)
		for i := range hosts {
			hosts[i] = Point{
				X: rng.Uniform(-world, world),
				Y: rng.Uniform(-world, world),
			}
			present[i] = true
			g.Upsert(GridID(i), hosts[i])
		}
		for q := 0; q < 5; q++ {
			p := Point{X: rng.Uniform(-world, world), Y: rng.Uniform(-world, world)}
			// Ranges from sub-cell to far larger than the world rect.
			r := rng.Uniform(0, 3*world)
			checkEquivalence(t, g, hosts, present, p, r)
		}
		// Query centered on a host (the medium's actual usage pattern).
		if n > 0 {
			checkEquivalence(t, g, hosts, present, hosts[rng.Intn(n)], cell)
		}
	}
}

// TestGridMatchesBruteForceUnderChurn moves random hosts between queries:
// the index must track the oracle through arbitrary history. With 240 IDs
// the candidates of one query span four words of the hit bitmap.
func TestGridMatchesBruteForceUnderChurn(t *testing.T) {
	rng := sim.NewRNG(11).Stream("grid-churn")
	const n = 240
	cell := 50.0
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]Point, n)
	present := make([]bool, n)
	for i := range hosts {
		hosts[i] = Point{X: rng.Uniform(-500, 500), Y: rng.Uniform(-500, 500)}
		present[i] = true
		g.Upsert(GridID(i), hosts[i])
	}
	for step := 0; step < 500; step++ {
		i := rng.Intn(n)
		hosts[i] = Point{X: rng.Uniform(-500, 500), Y: rng.Uniform(-500, 500)}
		g.Upsert(GridID(i), hosts[i])
		p := Point{X: rng.Uniform(-600, 600), Y: rng.Uniform(-600, 600)}
		checkEquivalence(t, g, hosts, present, p, rng.Uniform(0, 400))
	}
}

// TestGridMatchesBruteOnTorusEdges drives the wrap-around of the cell
// table: cells 64 apart share a bucket, a rectangle 64 or more cells wide
// visits each bucket of its axis once, and cells clamp to the ends of the
// int32 cell space. After placing the hosts and after each move it queries
// around every host, where only hosts at that very position may answer,
// and at the case's extra points.
func TestGridMatchesBruteOnTorusEdges(t *testing.T) {
	type move struct {
		id GridID
		to Point
	}
	type query struct {
		p Point
		r float64
	}
	inf := math.Inf(1)
	// A row and a column of hosts at integer coordinates through (0.5, 0.5):
	// around that point, radius 31 spans 63 cells on each axis, 31.5 spans
	// 64 and 32 spans 65. At 31.5 the hosts in the rectangle's end cells
	// sit exactly at the radius.
	var cross []Point
	for k := -70.0; k <= 70; k++ {
		cross = append(cross, Point{X: k, Y: 0.5}, Point{X: 0.5, Y: k})
	}
	cases := []struct {
		name    string
		cell    float64
		hosts   []Point
		shared  [2]GridID // two hosts the first placement puts in one bucket
		moves   []move
		queries []query
	}{
		{
			name:   "aliased cells",
			cell:   10,
			hosts:  []Point{{X: 5, Y: 5}, {X: 645, Y: 5}, {X: 5, Y: 645}, {X: -635, Y: -635}},
			shared: [2]GridID{0, 1},
			queries: []query{
				{Point{X: 5, Y: 5}, 639}, {Point{X: 5, Y: 5}, 640},
			},
		},
		{
			name:   "move between aliased cells",
			cell:   10,
			hosts:  []Point{{X: 5, Y: 5}, {X: 15, Y: 5}, {X: 645, Y: 5}},
			shared: [2]GridID{0, 2},
			moves: []move{
				{0, Point{X: -635, Y: 5}}, // cell -64: the same bucket
				{0, Point{X: 25, Y: 5}},   // a third bucket
				{2, Point{X: 645, Y: -635}},
			},
		},
		{
			name:  "one turn of the table",
			cell:  1,
			hosts: cross,
			queries: []query{
				{Point{X: 0.5, Y: 0.5}, 31}, {Point{X: 0.5, Y: 0.5}, 31.5},
				{Point{X: 0.5, Y: 0.5}, 32}, {Point{X: 0.5, Y: 0.5}, inf},
				{Point{X: 0.5, Y: 64.5}, 31.5}, {Point{X: -63.5, Y: 0.5}, 32},
			},
		},
		{
			name: "ends of the cell space",
			cell: 1,
			hosts: []Point{
				{X: 1e300, Y: 1e300}, {X: -1e300, Y: -1e300}, {X: 1e300, Y: -1e300},
				{X: inf, Y: 0}, {X: -inf, Y: 0}, {X: 0, Y: inf}, {X: 0, Y: -inf}, {X: 0.5, Y: 0.5},
			},
			moves: []move{
				{0, Point{X: -1e300, Y: -1e300}},
				{1, Point{X: 1e300, Y: 1e300}},
				{7, Point{X: -inf, Y: inf}},
			},
			queries: []query{
				{Point{X: 1e300, Y: 1e300}, 1e300}, {Point{}, inf},
				{Point{X: inf, Y: inf}, inf}, {Point{X: -inf, Y: 0}, 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGrid(tc.cell)
			if err != nil {
				t.Fatal(err)
			}
			hosts := append([]Point(nil), tc.hosts...)
			present := make([]bool, len(hosts))
			for i, h := range hosts {
				present[i] = true
				g.Upsert(GridID(i), h)
			}
			if a, b := tc.shared[0], tc.shared[1]; a != b && g.entries[a].bucket != g.entries[b].bucket {
				t.Fatalf("hosts %d and %d at %v and %v are in buckets %d and %d, want one",
					a, b, hosts[a], hosts[b], g.entries[a].bucket, g.entries[b].bucket)
			}
			check := func() {
				t.Helper()
				for _, h := range hosts {
					checkEquivalence(t, g, hosts, present, h, tc.cell/4)
				}
				for _, q := range tc.queries {
					checkEquivalence(t, g, hosts, present, q.p, q.r)
				}
			}
			check()
			for _, m := range tc.moves {
				hosts[m.id] = m.to
				g.Upsert(m.id, m.to)
				check()
			}
		})
	}
}

// TestGridBoundaryProperties covers the geometric edge cases called out in
// the design: hosts exactly at distance r, positions straddling cell edges,
// ranges larger than the world, and fully co-located populations.
func TestGridBoundaryProperties(t *testing.T) {
	rng := sim.NewRNG(13).Stream("grid-boundary")

	t.Run("exactly-at-r", func(t *testing.T) {
		for trial := 0; trial < 100; trial++ {
			cell := rng.Uniform(1, 100)
			g, err := NewGrid(cell)
			if err != nil {
				t.Fatal(err)
			}
			// Integer-valued center and radius keep center±r exact in
			// float64, so hosts on the axis-aligned cross sit at exactly
			// distance r and the boundary-inclusive contract is exercised.
			center := Point{X: float64(rng.Intn(401) - 200), Y: float64(rng.Intn(401) - 200)}
			r := float64(1 + rng.Intn(300))
			hosts := []Point{
				{X: center.X + r, Y: center.Y},
				{X: center.X - r, Y: center.Y},
				{X: center.X, Y: center.Y + r},
				{X: center.X, Y: center.Y - r},
			}
			present := []bool{true, true, true, true}
			for i, h := range hosts {
				g.Upsert(GridID(i), h)
			}
			checkEquivalence(t, g, hosts, present, center, r)
		}
	})

	t.Run("cell-edge-straddle", func(t *testing.T) {
		cell := 10.0
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		// Hosts sitting exactly on cell boundaries and a hair to either
		// side, in all four quadrants.
		var hosts []Point
		for _, base := range []float64{-20, -10, 0, 10, 20} {
			for _, eps := range []float64{-math.SmallestNonzeroFloat64, 0, math.SmallestNonzeroFloat64, -1e-9, 1e-9} {
				hosts = append(hosts, Point{X: base + eps, Y: base - eps})
			}
		}
		present := make([]bool, len(hosts))
		for i, h := range hosts {
			present[i] = true
			g.Upsert(GridID(i), h)
		}
		for trial := 0; trial < 200; trial++ {
			p := Point{X: rng.Uniform(-25, 25), Y: rng.Uniform(-25, 25)}
			checkEquivalence(t, g, hosts, present, p, rng.Uniform(0, 40))
			// And queries centered exactly on boundaries.
			checkEquivalence(t, g, hosts, present, Point{X: 10, Y: -10}, rng.Uniform(0, 40))
		}
	})

	t.Run("range-larger-than-world", func(t *testing.T) {
		for trial := 0; trial < 50; trial++ {
			cell := rng.Uniform(0.5, 20)
			g, err := NewGrid(cell)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + rng.Intn(10)
			hosts := make([]Point, n)
			present := make([]bool, n)
			for i := range hosts {
				hosts[i] = Point{X: rng.Uniform(-50, 50), Y: rng.Uniform(-50, 50)}
				present[i] = true
				g.Upsert(GridID(i), hosts[i])
			}
			// A radius vastly exceeding the populated area must return
			// everyone without walking an astronomically large cell rect.
			for _, r := range []float64{1e6, 1e12, math.MaxFloat64, math.Inf(1)} {
				p := Point{X: rng.Uniform(-50, 50), Y: rng.Uniform(-50, 50)}
				checkEquivalence(t, g, hosts, present, p, r)
			}
		}
	})

	t.Run("co-located", func(t *testing.T) {
		g, err := NewGrid(5)
		if err != nil {
			t.Fatal(err)
		}
		at := Point{X: 17.25, Y: -3.5}
		const n = 12
		hosts := make([]Point, n)
		present := make([]bool, n)
		for i := range hosts {
			hosts[i] = at
			present[i] = true
			g.Upsert(GridID(i), at)
		}
		checkEquivalence(t, g, hosts, present, at, 0)
		checkEquivalence(t, g, hosts, present, at, 100)
		checkEquivalence(t, g, hosts, present, Point{X: 17.25, Y: -3.5 + 2}, 2)
		checkEquivalence(t, g, hosts, present, Point{}, 1)
	})
}

// TestGridAppendRangeReuseStaysEquivalent exercises the medium's scratch
// reuse pattern: repeated AppendRange into a truncated buffer must keep
// matching the oracle (no stale-tail or aliasing bugs).
func TestGridAppendRangeReuseStaysEquivalent(t *testing.T) {
	rng := sim.NewRNG(17).Stream("grid-reuse")
	g, err := NewGrid(30)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	hosts := make([]Point, n)
	present := make([]bool, n)
	for i := range hosts {
		hosts[i] = Point{X: rng.Uniform(-300, 300), Y: rng.Uniform(-300, 300)}
		present[i] = true
		g.Upsert(GridID(i), hosts[i])
	}
	var scratch []GridID
	for trial := 0; trial < 300; trial++ {
		p := Point{X: rng.Uniform(-300, 300), Y: rng.Uniform(-300, 300)}
		r := rng.Uniform(0, 200)
		scratch = g.AppendRange(scratch[:0], p, r)
		want := bruteRange(hosts, present, p, r)
		if !sameIDs(scratch, want) {
			t.Fatalf("reused-buffer divergence at p=%v r=%v:\n grid  = %v\n brute = %v", p, r, scratch, want)
		}
	}
}
