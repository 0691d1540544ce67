package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Point{1, 2}, Point{1, 2}, 0},
		{"horizontal", Point{0, 0}, Point{3, 0}, 3},
		{"vertical", Point{0, 0}, Point{0, 4}, 4},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-1, -1}, Point{2, 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
			if got := Dist2(tt.a, tt.b); math.Abs(got-tt.want*tt.want) > 1e-9 {
				t.Errorf("Dist2 = %v, want %v", got, tt.want*tt.want)
			}
		})
	}
}

func TestWithinRange(t *testing.T) {
	a := Point{0, 0}
	if !WithinRange(a, Point{3, 4}, 5) {
		t.Error("boundary point not within range")
	}
	if WithinRange(a, Point{3, 4}, 4.999) {
		t.Error("point beyond range reported within")
	}
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v", got)
	}
	if got := Lerp(a, b, 0.5); got != (Point{5, 10}) {
		t.Errorf("Lerp t=0.5 = %v", got)
	}
	if got := Lerp(a, b, -3); got != a {
		t.Errorf("Lerp t<0 not clamped: %v", got)
	}
	if got := Lerp(a, b, 7); got != b {
		t.Errorf("Lerp t>1 not clamped: %v", got)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(100, 50)
	if r.Width() != 100 || r.Height() != 50 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{100, 50}) {
		t.Error("corners not contained")
	}
	if r.Contains(Point{100.01, 0}) || r.Contains(Point{0, -0.01}) {
		t.Error("outside point contained")
	}
	if got := r.Center(); got != (Point{50, 25}) {
		t.Errorf("Center = %v", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := NewRect(10, 10)
	tests := []struct {
		in, want Point
	}{
		{Point{5, 5}, Point{5, 5}},
		{Point{-3, 5}, Point{0, 5}},
		{Point{15, 20}, Point{10, 10}},
		{Point{5, -1}, Point{5, 0}},
	}
	for _, tt := range tests {
		if got := r.Clamp(tt.in); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// TestRectClampMatchesMathMaxMin pins Clamp's builtin min/max to the
// math.Max/math.Min formula it replaced: on every rectangle of positive
// width and height, for coordinates built from NaN, ±0, ±Inf and finite
// values, each result has the same bits or both are NaN. (NaN payloads may
// differ: math returns its canonical NaN, the builtins an operand.)
func TestRectClampMatchesMathMaxMin(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	old := func(lo, hi, v float64) float64 { return math.Max(lo, math.Min(hi, v)) }
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	rects := 0
	for _, lo := range vals {
		for _, hi := range vals {
			if !(hi-lo > 0) {
				continue
			}
			rects++
			r := Rect{MinX: lo, MinY: -hi, MaxX: hi, MaxY: -lo}
			for _, x := range vals {
				for _, y := range vals {
					got := r.Clamp(Point{X: x, Y: y})
					wantX, wantY := old(r.MinX, r.MaxX, x), old(r.MinY, r.MaxY, y)
					if !same(got.X, wantX) || !same(got.Y, wantY) {
						t.Fatalf("%+v.Clamp(%v, %v) = (%v, %v), math.Max/Min gives (%v, %v)",
							r, x, y, got.X, got.Y, wantX, wantY)
					}
				}
			}
		}
	}
	if rects < 30 {
		t.Fatalf("only %d rectangles exercised", rects)
	}
}

// Properties: distance symmetry, non-negativity, triangle inequality; clamp
// always lands inside.
func TestGeoProperties(t *testing.T) {
	type pt struct{ X, Y int16 }
	toPoint := func(p pt) Point { return Point{float64(p.X), float64(p.Y)} }

	symmetry := func(a, b pt) bool {
		return Dist(toPoint(a), toPoint(b)) == Dist(toPoint(b), toPoint(a))
	}
	if err := quick.Check(symmetry, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}

	triangle := func(a, b, c pt) bool {
		pa, pb, pc := toPoint(a), toPoint(b), toPoint(c)
		return Dist(pa, pc) <= Dist(pa, pb)+Dist(pb, pc)+1e-9
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}

	clampInside := func(p pt) bool {
		r := NewRect(500, 300)
		return r.Contains(r.Clamp(toPoint(p)))
	}
	if err := quick.Check(clampInside, nil); err != nil {
		t.Errorf("clamp inside: %v", err)
	}
}
