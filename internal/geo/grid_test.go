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

func TestGridInsertMoveRemove(t *testing.T) {
	g := mustGrid(t, 10)
	if err := g.Insert(1, Point{X: 5, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, Point{X: 6, Y: 6}); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := g.Insert(-1, Point{}); err == nil {
		t.Error("negative id accepted")
	}
	if err := g.Move(2, Point{}); err == nil {
		t.Error("move of unknown id accepted")
	}
	if !g.Contains(1) || g.Contains(2) || g.Len() != 1 {
		t.Errorf("membership wrong: contains(1)=%v contains(2)=%v len=%d", g.Contains(1), g.Contains(2), g.Len())
	}
	// Move across a cell boundary and back.
	if err := g.Move(1, Point{X: 25, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRange(Point{X: 25, Y: 5}, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("query after move = %v", got)
	}
	if got := g.QueryRange(Point{X: 5, Y: 5}, 1); len(got) != 0 {
		t.Errorf("query at old position = %v", got)
	}
	if got := g.Pos(1); got != (Point{X: 25, Y: 5}) {
		t.Errorf("Pos after move = %v", got)
	}
	if !g.Remove(1) || g.Remove(1) || g.Len() != 0 {
		t.Error("remove bookkeeping wrong")
	}
	if got := g.Pos(1); got != (Point{}) {
		t.Errorf("Pos after remove = %v, want the zero Point", got)
	}
	if got := g.QueryRange(Point{X: 25, Y: 5}, 1); len(got) != 0 {
		t.Errorf("query after remove = %v", got)
	}
}

func TestGridQueryBoundaryInclusive(t *testing.T) {
	// A host exactly at distance r is in range, exactly as WithinRange.
	g := mustGrid(t, 5)
	if err := g.Insert(7, Point{X: 3, Y: 4}); err != nil { // distance 5 from origin
		t.Fatal(err)
	}
	if got := g.QueryRange(Point{}, 5); len(got) != 1 || got[0] != 7 {
		t.Errorf("boundary host not returned: %v", got)
	}
	if got := g.QueryRange(Point{}, 4.999); len(got) != 0 {
		t.Errorf("out-of-range host returned: %v", got)
	}
}

func TestGridCanonicalOrder(t *testing.T) {
	// Insertion order, cell placement, and churn must not leak into the
	// output order: IDs come back ascending.
	g := mustGrid(t, 10)
	for _, id := range []GridID{9, 2, 7, 1, 5} {
		if err := g.Insert(id, Point{X: float64(id), Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Move(7, Point{X: 3.5, Y: 0}); err != nil {
		t.Fatal(err)
	}
	g.Remove(2)
	got := g.QueryRange(Point{}, 100)
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
		if err := g.Insert(GridID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pts {
		got := g.QueryRange(p, 0.5)
		if len(got) != 1 || got[i-i] != GridID(i) {
			t.Errorf("point query at %v = %v, want [%d]", p, got, i)
		}
	}
	if got := g.QueryRange(Point{X: -10, Y: -10}, 1e9); len(got) != 3 {
		t.Errorf("huge-range query = %v, want all 3", got)
	}
}

func TestGridAppendRangePreservesPrefix(t *testing.T) {
	g := mustGrid(t, 10)
	if err := g.Insert(3, Point{}); err != nil {
		t.Fatal(err)
	}
	out := g.AppendRange([]GridID{42}, Point{}, 1)
	if len(out) != 2 || out[0] != 42 || out[1] != 3 {
		t.Errorf("AppendRange = %v, want [42 3]", out)
	}
}

func TestGridNaNAndInfinity(t *testing.T) {
	g := mustGrid(t, 10)
	if err := g.Insert(1, Point{X: math.NaN(), Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(2, Point{X: 3, Y: 4}); err != nil {
		t.Fatal(err)
	}
	// A NaN-positioned host is never within range of anything, exactly
	// like the brute-force WithinRange predicate.
	if got := g.QueryRange(Point{}, math.Inf(1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("query around origin = %v, want [2]", got)
	}
	// A NaN query point matches nothing.
	if got := g.QueryRange(Point{X: math.NaN()}, 100); len(got) != 0 {
		t.Errorf("NaN query = %v, want empty", got)
	}
	// An infinite center with infinite radius matches every finite host:
	// Dist2 = +Inf <= r^2 = +Inf, matching WithinRange bit-for-bit.
	if got := g.QueryRange(Point{X: math.Inf(1)}, math.Inf(1)); len(got) != 1 || got[0] != 2 {
		t.Errorf("Inf query = %v, want [2]", got)
	}
}

func TestGridZeroAndSingleHost(t *testing.T) {
	g := mustGrid(t, 10)
	if got := g.QueryRange(Point{}, 100); len(got) != 0 {
		t.Errorf("empty grid query = %v", got)
	}
	if err := g.Insert(4, Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if got := g.QueryRange(Point{}, 100); len(got) != 1 || got[0] != 4 {
		t.Errorf("single-host query = %v", got)
	}
}
