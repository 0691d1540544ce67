package geo

import (
	"math"
	"testing"
)

func mustGrid(t *testing.T, cell float64) *Grid {
	t.Helper()
	g, err := NewGrid(cell)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridValidation(t *testing.T) {
	for _, cell := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewGrid(cell); err == nil {
			t.Errorf("cell size %v accepted", cell)
		}
	}
	if _, err := NewGrid(100); err != nil {
		t.Errorf("valid cell size rejected: %v", err)
	}
}

// queryRange runs a range query into a fresh slice.
func queryRange(g *Grid, p Point, r float64) []GridID {
	return g.AppendRange(nil, p, r)
}

func TestGridUpsertMove(t *testing.T) {
	g := mustGrid(t, 10)
	g.Upsert(1, Point{X: 5, Y: 5})
	if !g.contains(1) || g.contains(2) || g.contains(-1) {
		t.Errorf("membership wrong: contains(1)=%v contains(2)=%v contains(-1)=%v", g.contains(1), g.contains(2), g.contains(-1))
	}
	if got := g.Pos(2); got != (Point{}) {
		t.Errorf("Pos of an absent id = %v, want the zero Point", got)
	}
	// Move across a cell boundary and back.
	g.Upsert(1, Point{X: 25, Y: 5})
	if got := queryRange(g, Point{X: 25, Y: 5}, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("query after move = %v", got)
	}
	if got := queryRange(g, Point{X: 5, Y: 5}, 1); len(got) != 0 {
		t.Errorf("query at old position = %v", got)
	}
	if got := g.Pos(1); got != (Point{X: 25, Y: 5}) {
		t.Errorf("Pos after move = %v", got)
	}
	g.Upsert(1, Point{X: 5, Y: 5})
	if got := queryRange(g, Point{X: 5, Y: 5}, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("query after moving back = %v", got)
	}
}

func TestGridQueryBoundaryInclusive(t *testing.T) {
	// A host exactly at distance r is in range, exactly as WithinRange.
	g := mustGrid(t, 5)
	g.Upsert(7, Point{X: 3, Y: 4}) // distance 5 from origin
	if got := queryRange(g, Point{}, 5); len(got) != 1 || got[0] != 7 {
		t.Errorf("boundary host not returned: %v", got)
	}
	if got := queryRange(g, Point{}, 4.999); len(got) != 0 {
		t.Errorf("out-of-range host returned: %v", got)
	}
}

func TestGridCanonicalOrder(t *testing.T) {
	// Insertion order, cell placement, and churn must not leak into the
	// output order: IDs come back ascending.
	g := mustGrid(t, 10)
	for _, id := range []GridID{9, 2, 7, 1, 5} {
		g.Upsert(id, Point{X: float64(id), Y: 0})
	}
	g.Upsert(7, Point{X: 3.5, Y: 0})
	g.Upsert(2, Point{X: 1000, Y: 0})
	got := queryRange(g, Point{}, 100)
	want := []GridID{1, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("query = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query = %v, want %v", got, want)
		}
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := mustGrid(t, 10)
	pts := []Point{{X: -5, Y: -5}, {X: -15, Y: 5}, {X: 5, Y: -25}}
	for i, p := range pts {
		g.Upsert(GridID(i), p)
	}
	for i, p := range pts {
		got := queryRange(g, p, 0.5)
		if len(got) != 1 || got[i-i] != GridID(i) {
			t.Errorf("point query at %v = %v, want [%d]", p, got, i)
		}
	}
	if got := queryRange(g, Point{X: -10, Y: -10}, 1e9); len(got) != 3 {
		t.Errorf("huge-range query = %v, want all 3", got)
	}
}

func TestGridAppendRangePreservesPrefix(t *testing.T) {
	g := mustGrid(t, 10)
	g.Upsert(3, Point{})
	out := g.AppendRange([]GridID{42}, Point{}, 1)
	if len(out) != 2 || out[0] != 42 || out[1] != 3 {
		t.Errorf("AppendRange = %v, want [42 3]", out)
	}
}

func TestGridNaNAndInfinity(t *testing.T) {
	g := mustGrid(t, 10)
	g.Upsert(1, Point{X: math.NaN(), Y: 0})
	g.Upsert(2, Point{X: 3, Y: 4})
	// A NaN-positioned host is never within range of anything, exactly
	// like the brute-force WithinRange predicate.
	if got := queryRange(g, Point{}, math.Inf(1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("query around origin = %v, want [2]", got)
	}
	// A NaN query point matches nothing.
	if got := queryRange(g, Point{X: math.NaN()}, 100); len(got) != 0 {
		t.Errorf("NaN query = %v, want empty", got)
	}
	// An infinite center with infinite radius matches every finite host:
	// Dist2 = +Inf <= r^2 = +Inf, matching WithinRange bit-for-bit.
	if got := queryRange(g, Point{X: math.Inf(1)}, math.Inf(1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("Inf query = %v, want [2]", got)
	}
}

func TestGridZeroAndSingleHost(t *testing.T) {
	g := mustGrid(t, 10)
	if got := queryRange(g, Point{}, 100); len(got) != 0 {
		t.Errorf("empty grid query = %v", got)
	}
	g.Upsert(4, Point{X: 1, Y: 1})
	if got := queryRange(g, Point{}, 100); len(got) != 1 || got[0] != 4 {
		t.Errorf("single-host query = %v", got)
	}
}
