package mobility

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Manhattan is a street-grid mobility model: nodes travel along the lines
// of a regular grid, choosing at every intersection to continue straight
// (probability 1/2) or turn left/right (1/4 each), with a uniformly drawn
// speed per block and the configured pause at intersections. It is the
// standard urban alternative to the random waypoint model and exercises
// group discovery under channelled, non-isotropic movement.
type Manhattan struct {
	cfg     Config
	spacing float64
	rng     *sim.RNG
	cur     segment
	// heading is the current direction in grid steps.
	heading   geo.Point
	pauseNext bool
}

var _ Node = (*Manhattan)(nil)

// NewManhattan creates a grid trajectory with the given street spacing in
// metres, starting at a random intersection with a random heading.
func NewManhattan(cfg Config, spacing float64, rng *sim.RNG) (*Manhattan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("mobility: grid spacing %v must be positive", spacing)
	}
	if spacing > cfg.Space.Width() || spacing > cfg.Space.Height() {
		return nil, fmt.Errorf("mobility: grid spacing %v exceeds the space", spacing)
	}
	m := &Manhattan{cfg: cfg, spacing: spacing, rng: rng}
	start := m.randIntersection()
	m.cur = segment{from: start, to: start}
	m.heading = m.randHeading()
	return m, nil
}

// randIntersection picks a uniform grid intersection inside the space.
func (m *Manhattan) randIntersection() geo.Point {
	cols := int(m.cfg.Space.Width() / m.spacing)
	rows := int(m.cfg.Space.Height() / m.spacing)
	return geo.Point{
		X: m.cfg.Space.MinX + float64(m.rng.Intn(cols+1))*m.spacing,
		Y: m.cfg.Space.MinY + float64(m.rng.Intn(rows+1))*m.spacing,
	}
}

// randHeading picks one of the four grid directions.
func (m *Manhattan) randHeading() geo.Point {
	switch m.rng.Intn(4) {
	case 0:
		return geo.Point{X: 1}
	case 1:
		return geo.Point{X: -1}
	case 2:
		return geo.Point{Y: 1}
	default:
		return geo.Point{Y: -1}
	}
}

// turn rotates the heading: straight with probability 1/2, left or right
// with probability 1/4 each.
func (m *Manhattan) turn() {
	switch m.rng.Intn(4) {
	case 0: // left
		m.heading = geo.Point{X: -m.heading.Y, Y: m.heading.X}
	case 1: // right
		m.heading = geo.Point{X: m.heading.Y, Y: -m.heading.X}
	default: // straight
	}
}

// Position returns the node position at time t (non-decreasing across
// calls).
func (m *Manhattan) Position(t time.Duration) geo.Point {
	return m.segmentAt(t).at(t)
}

// Motion implements Node: the covering segment's end and speed.
func (m *Manhattan) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	return m.segmentAt(t).motion(t)
}

// segmentAt extends the trajectory until it covers t (see Waypoint's).
func (m *Manhattan) segmentAt(t time.Duration) *segment {
	for t > m.cur.end {
		m.advance()
	}
	return &m.cur
}

// advance generates the next block traversal (or intersection pause).
func (m *Manhattan) advance() {
	here := m.cur.to
	if m.pauseNext && m.cfg.Pause > 0 {
		m.cur = segment{start: m.cur.end, end: m.cur.end + m.cfg.Pause, from: here, to: here}
		m.pauseNext = false
		return
	}
	m.turn()
	next := here.Add(m.heading.Scale(m.spacing))
	// Bounce off the boundary: reverse when the next intersection leaves
	// the space.
	if !m.cfg.Space.Contains(next) {
		m.heading = m.heading.Scale(-1)
		next = here.Add(m.heading.Scale(m.spacing))
		if !m.cfg.Space.Contains(next) {
			// Degenerate corner: stay put for one pause interval.
			pause := m.cfg.Pause
			if pause <= 0 {
				pause = time.Second
			}
			m.cur = segment{start: m.cur.end, end: m.cur.end + pause, from: here, to: here}
			return
		}
	}
	speed := m.rng.Uniform(m.cfg.MinSpeed, m.cfg.MaxSpeed)
	if speed <= 0 {
		speed = m.cfg.MaxSpeed
	}
	travel := time.Duration(m.spacing / speed * float64(time.Second))
	if travel <= 0 {
		travel = time.Millisecond
	}
	m.cur = segment{start: m.cur.end, end: m.cur.end + travel, from: here, to: next}
	m.pauseNext = true
}

// OnGrid reports whether a point lies on a grid line (within eps), the
// model's movement invariant.
func (m *Manhattan) OnGrid(p geo.Point, eps float64) bool {
	onX := math.Mod(p.X-m.cfg.Space.MinX, m.spacing)
	onY := math.Mod(p.Y-m.cfg.Space.MinY, m.spacing)
	nearX := onX < eps || m.spacing-onX < eps
	nearY := onY < eps || m.spacing-onY < eps
	return nearX || nearY
}
