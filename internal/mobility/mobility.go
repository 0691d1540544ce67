// Package mobility implements the movement models of the paper's client
// model: the random waypoint model (Broch et al.) and the reference point
// group mobility model (Hong et al.), in which each motion group's
// reference point follows a reference trajectory and members move in loose
// formation around it — plus a Manhattan street-grid model as an urban
// alternative reference trajectory.
//
// Trajectories are piecewise linear and generated lazily: a model holds only
// its current segment and extends it on demand, so positions can be sampled
// at arbitrary (non-decreasing) simulation times without stepping a global
// movement clock.
package mobility

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Node is anything whose position can be sampled over simulation time.
// Position and Motion must be called with non-decreasing times; the
// simulation's global clock guarantees this.
type Node interface {
	Position(t time.Duration) geo.Point
	// Motion returns Position(t) together with how long that answer's
	// straight piece lasts: Position is a pure function of time on
	// [t, until] (it draws no randomness and changes no state that alters
	// later results), and it moves at most speed metres per second there.
	Motion(t time.Duration) (pos geo.Point, until time.Duration, speed float64)
}

// segment is one linear piece of a trajectory: the node moves from From to
// To over [Start, End]. Pauses are segments with From == To.
type segment struct {
	start, end time.Duration
	from, to   geo.Point
}

func (s segment) at(t time.Duration) geo.Point {
	if s.end <= s.start {
		return s.to
	}
	progress := float64(t-s.start) / float64(s.end-s.start)
	return geo.Lerp(s.from, s.to, progress)
}

// motion is Node.Motion on the segment covering t.
func (s *segment) motion(t time.Duration) (geo.Point, time.Duration, float64) {
	return s.at(t), s.end, speedOver(s.to.Sub(s.from), s.start, s.end)
}

// speedOver is the speed of a displacement d covered over [start, end]; a
// zero-length interval has speed 0.
func speedOver(d geo.Point, start, end time.Duration) float64 {
	if end <= start {
		return 0
	}
	return math.Sqrt(d.X*d.X+d.Y*d.Y) / (end - start).Seconds()
}

// Config holds the waypoint-model parameters shared by both models.
type Config struct {
	// Space is the movement area.
	Space geo.Rect
	// MinSpeed and MaxSpeed bound the uniformly drawn speed, in m/s.
	// MaxSpeed must be positive.
	MinSpeed, MaxSpeed float64
	// Pause is the dwell time at each waypoint.
	Pause time.Duration
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.Space.Width() > 0) || !(c.Space.Height() > 0) {
		return fmt.Errorf("mobility: degenerate space %+v", c.Space)
	}
	if !(c.MaxSpeed > 0) {
		return fmt.Errorf("mobility: MaxSpeed %v must be positive", c.MaxSpeed)
	}
	if !(c.MinSpeed >= 0 && c.MinSpeed <= c.MaxSpeed) {
		return fmt.Errorf("mobility: speed range [%v, %v] invalid", c.MinSpeed, c.MaxSpeed)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	return nil
}

// Waypoint is a random waypoint trajectory: repeatedly pick a uniform
// destination in the space, move to it at a uniform random speed, pause,
// and repeat.
type Waypoint struct {
	cfg Config
	rng *sim.RNG
	cur segment
	// pausedNext is true when the next generated segment is a pause.
	pausedNext bool
}

var _ Node = (*Waypoint)(nil)

// NewWaypoint creates a random waypoint trajectory starting at a uniform
// random position at time zero.
func NewWaypoint(cfg Config, rng *sim.RNG) (*Waypoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := randPoint(cfg.Space, rng)
	w := &Waypoint{
		cfg: cfg,
		rng: rng,
		cur: segment{start: 0, end: 0, from: start, to: start},
	}
	return w, nil
}

func randPoint(r geo.Rect, rng *sim.RNG) geo.Point {
	return geo.Point{
		X: rng.Uniform(r.MinX, r.MaxX),
		Y: rng.Uniform(r.MinY, r.MaxY),
	}
}

// Position returns the node position at time t (non-decreasing across
// calls).
func (w *Waypoint) Position(t time.Duration) geo.Point {
	return w.segmentAt(t).at(t)
}

// Motion implements Node: the covering segment's end and speed.
func (w *Waypoint) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	return w.segmentAt(t).motion(t)
}

// segmentAt extends the trajectory until it covers t and returns the
// covering segment, which later extensions overwrite in place.
func (w *Waypoint) segmentAt(t time.Duration) *segment {
	for t > w.cur.end {
		w.advance()
	}
	return &w.cur
}

// advance appends the next segment: a pause at the current waypoint or a
// move to a fresh waypoint, alternating.
func (w *Waypoint) advance() {
	here := w.cur.to
	if w.pausedNext && w.cfg.Pause > 0 {
		w.cur = segment{start: w.cur.end, end: w.cur.end + w.cfg.Pause, from: here, to: here}
		w.pausedNext = false
		return
	}
	dest := randPoint(w.cfg.Space, w.rng)
	speed := w.rng.Uniform(w.cfg.MinSpeed, w.cfg.MaxSpeed)
	if speed <= 0 {
		speed = w.cfg.MaxSpeed
	}
	dist := geo.Dist(here, dest)
	travel := time.Duration(dist / speed * float64(time.Second))
	if travel <= 0 {
		travel = time.Millisecond
	}
	w.cur = segment{start: w.cur.end, end: w.cur.end + travel, from: here, to: dest}
	w.pausedNext = true
}

// trajectory is the lazily extended piecewise-linear path both reference
// models (random waypoint and Manhattan grid) implement.
type trajectory interface {
	Node
	segmentAt(t time.Duration) *segment
}

var (
	_ trajectory = (*Waypoint)(nil)
	_ trajectory = (*Manhattan)(nil)
)

// Group is a reference point group mobility model: the group's invisible
// reference point follows a reference trajectory (random waypoint by
// default, Manhattan grid optionally), and each member tracks the reference
// point plus a smoothly varying random offset within Radius. With a single
// member and zero radius it degenerates to the individual reference model,
// matching the paper's GroupSize = 1 case.
type Group struct {
	ref    trajectory
	cur    *segment // ref's current segment, extended in place
	space  geo.Rect
	radius float64
	rng    *sim.RNG
}

// NewGroup creates a motion group whose members roam within radius metres of
// a shared random waypoint reference point.
func NewGroup(cfg Config, radius float64, rng *sim.RNG) (*Group, error) {
	ref, err := NewWaypoint(cfg, rng)
	if err != nil {
		return nil, err
	}
	return newGroup(ref, &ref.cur, cfg.Space, radius, rng)
}

// NewManhattanGroup creates a motion group whose reference point follows a
// Manhattan street grid with the given spacing.
func NewManhattanGroup(cfg Config, spacing, radius float64, rng *sim.RNG) (*Group, error) {
	ref, err := NewManhattan(cfg, spacing, rng)
	if err != nil {
		return nil, err
	}
	return newGroup(ref, &ref.cur, cfg.Space, radius, rng)
}

func newGroup(ref trajectory, cur *segment, space geo.Rect, radius float64, rng *sim.RNG) (*Group, error) {
	if !(radius >= 0) || math.IsInf(radius, 1) {
		return nil, fmt.Errorf("mobility: group radius %v must be non-negative and finite", radius)
	}
	return &Group{ref: ref, cur: cur, space: space, radius: radius, rng: rng}, nil
}

// NewMember adds a member to the group. Members sample their own offsets
// from the group RNG at creation and segment boundaries, so creation order
// matters for reproducibility.
func (g *Group) NewMember() *Member {
	off := g.randOffset()
	return &Member{g: g, segStart: -1, offStart: off, offEnd: off}
}

func (g *Group) randOffset() geo.Point {
	if g.radius == 0 {
		return geo.Point{}
	}
	// Rejection-sample a point in the disc for a uniform spatial spread.
	for {
		p := geo.Point{
			X: g.rng.Uniform(-g.radius, g.radius),
			Y: g.rng.Uniform(-g.radius, g.radius),
		}
		if p.X*p.X+p.Y*p.Y <= g.radius*g.radius {
			return p
		}
	}
}

// Reference returns the group's reference trajectory, mainly for tests.
func (g *Group) Reference() Node { return g.ref }

// Member is one mobile host in a motion group.
type Member struct {
	g *Group
	// segStart keys the offsets to a reference segment; -1 before any call.
	segStart         time.Duration
	offStart, offEnd geo.Point
}

var _ Node = (*Member)(nil)

// Position returns the member position at time t: the reference point plus
// an offset interpolated across the current reference segment, clamped to
// the movement space.
func (m *Member) Position(t time.Duration) geo.Point {
	p, _, _ := m.Motion(t)
	return p
}

// Motion implements Node. until is the group's current reference-segment
// end, where the next segment (and the member's next offset) may be drawn.
// speed is |Δreference + Δoffset| over the segment's duration: both move
// linearly in one progress value, and the clamp is a projection, which
// cannot move the position faster.
//
//hot:sampled by the medium for every host that can draw or has used up its drift budget
func (m *Member) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	ref := m.g.cur
	if t > ref.end {
		ref = m.g.ref.segmentAt(t)
	}
	if ref.start != m.segStart {
		// New reference segment: drift toward a fresh offset target.
		m.offStart = m.offEnd
		m.offEnd = m.g.randOffset()
		m.segStart = ref.start
	}
	at, off := ref.to, m.offStart // as segment.at, with one progress for both
	if ref.end > ref.start {
		progress := float64(t-ref.start) / float64(ref.end-ref.start)
		at, off = geo.Lerp(ref.from, ref.to, progress), geo.Lerp(m.offStart, m.offEnd, progress)
	}
	speed := speedOver(ref.to.Sub(ref.from).Add(m.offEnd.Sub(m.offStart)), ref.start, ref.end)
	return m.g.space.Clamp(at.Add(off)), ref.end, speed
}

// Fixed is a stationary node, useful for tests and for modelling the MSS.
type Fixed struct {
	At geo.Point
}

var _ Node = Fixed{}

// Position returns the fixed location regardless of time.
func (f Fixed) Position(time.Duration) geo.Point { return f.At }

// Motion implements Node: a fixed node never moves and never draws.
func (f Fixed) Motion(time.Duration) (geo.Point, time.Duration, float64) {
	return f.At, math.MaxInt64, 0
}
