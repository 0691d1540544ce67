// Package geo provides the 2-D geometry primitives used by the mobility
// models and the wireless range checks: points, rectangles, Euclidean
// distance, and linear interpolation along segments.
package geo

import "math"

// Point is a location in the simulated plane, in metres.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points, the |m_i m_j| of
// the paper's mobility-similarity measure.
func Dist(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance; cheaper than Dist when only
// comparisons against a squared threshold are needed.
func Dist2(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return dx*dx + dy*dy
}

// WithinRange reports whether b lies within radius r of a.
func WithinRange(a, b Point, r float64) bool {
	return Dist2(a, b) <= r*r
}

// Lerp linearly interpolates between a and b; t=0 yields a, t=1 yields b.
// t outside [0, 1] is clamped.
func Lerp(a, b Point, t float64) Point {
	if t <= 0 {
		return a
	}
	if t >= 1 {
		return b
	}
	return Point{
		X: a.X + (b.X-a.X)*t,
		Y: a.Y + (b.Y-a.Y)*t,
	}
}

// Add returns the vector sum a + b.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Sub returns the vector difference a − b.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Scale returns the point scaled by s.
func (p Point) Scale(s float64) Point { return Point{X: p.X * s, Y: p.Y * s} }

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle [0, w] × [0, h].
func NewRect(w, h float64) Rect {
	return Rect{MaxX: w, MaxY: h}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside the rectangle, as
// math.Max/math.Min would on any rectangle of positive width and height.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: max(r.MinX, min(r.MaxX, p.X)),
		Y: max(r.MinY, min(r.MaxY, p.Y)),
	}
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}
