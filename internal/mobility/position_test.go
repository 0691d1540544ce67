package mobility

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// formulaMember is the reference formula Member.Position must reproduce
// bit for bit: it extends the reference trajectory on every call, computes
// the segment progress twice (here and in segment.at), and clamps through
// math.Max/math.Min. It shares the Group type, so it draws its offsets from
// the group RNG exactly as Member does.
type formulaMember struct {
	g                *Group
	seg              segment
	segSet           bool
	offStart, offEnd geo.Point
}

func newFormulaMember(g *Group) *formulaMember {
	off := g.randOffset()
	return &formulaMember{g: g, offStart: off, offEnd: off}
}

func (m *formulaMember) Position(t time.Duration) geo.Point {
	ref := *m.g.ref.segmentAt(t)
	if !m.segSet || ref.start != m.seg.start {
		m.offStart = m.offEnd
		m.offEnd = m.g.randOffset()
		m.seg = ref
		m.segSet = true
	}
	var progress float64
	if ref.end > ref.start {
		progress = float64(t-ref.start) / float64(ref.end-ref.start)
	}
	off := geo.Lerp(m.offStart, m.offEnd, progress)
	p, s := ref.at(t).Add(off), m.g.space
	return geo.Point{
		X: math.Max(s.MinX, math.Min(s.MaxX, p.X)),
		Y: math.Max(s.MinY, math.Min(s.MaxY, p.Y)),
	}
}

// TestMemberPositionMatchesFormula runs Member and formulaMember in twin
// groups built from one seed and requires bit-identical positions over
// Waypoint and Manhattan references, radius 0 and 50, and pause 0 and 1 s.
// Members are sampled in shuffled order at t = 0, mid-segment, one
// nanosecond before a segment boundary, exactly on it (one segment's end
// and the next one's start) and one nanosecond past it; a sampled member
// sometimes sits a time out, so that it misses whole segments.
func TestMemberPositionMatchesFormula(t *testing.T) {
	for _, ref := range []string{"waypoint", "manhattan"} {
		for _, radius := range []float64{0, 50} {
			for _, pause := range []time.Duration{0, time.Second} {
				t.Run(fmt.Sprintf("%s/radius=%v/pause=%v", ref, radius, pause), func(t *testing.T) {
					cfg := Config{Space: geo.NewRect(400, 300), MinSpeed: 1, MaxSpeed: 20, Pause: pause}
					build := func() *Group {
						rng := sim.NewRNG(61).Stream("formula")
						var g *Group
						var err error
						if ref == "waypoint" {
							g, err = NewGroup(cfg, radius, rng)
						} else {
							g, err = NewManhattanGroup(cfg, 50, radius, rng)
						}
						if err != nil {
							t.Fatal(err)
						}
						return g
					}
					gm, gf := build(), build()
					const n = 5
					members, formulas := make([]*Member, n), make([]*formulaMember, n)
					for i := range members {
						members[i], formulas[i] = gm.NewMember(), newFormulaMember(gf)
					}
					order := sim.NewRNG(67).Stream("order")
					sample := func(at time.Duration) {
						for _, i := range order.Perm(n) {
							if at > 0 && order.Bool(0.2) {
								continue
							}
							got, want := members[i].Position(at), formulas[i].Position(at)
							if math.Float64bits(got.X) != math.Float64bits(want.X) ||
								math.Float64bits(got.Y) != math.Float64bits(want.Y) {
								t.Fatalf("member %d at t=%v: Position %v, formula %v", i, at, got, want)
							}
						}
					}
					sample(0)
					last := time.Duration(0)
					for seg := 0; seg < 200; seg++ {
						cur := *gm.cur
						for _, at := range []time.Duration{cur.start + (cur.end-cur.start)/2, cur.end - 1, cur.end, cur.end + 1} {
							if at >= last {
								sample(at)
								last = at
							}
						}
					}
					if gm.cur.end < 100*time.Second {
						t.Fatalf("reference reached only %v; the samples crossed too few segments", gm.cur.end)
					}
				})
			}
		}
	}
}
