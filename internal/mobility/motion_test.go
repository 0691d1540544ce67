package mobility

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// sameBits reports whether two points are bit-for-bit equal.
func sameBits(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// motionModel names a builder of identical node sets: each call rebuilds
// the same nodes from the same seed, so three calls give a model under test
// and two twins.
type motionModel struct {
	name  string
	build func() []Node
}

func motionModels(t *testing.T) []motionModel {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	space := geo.NewRect(400, 300)
	models := []motionModel{{"fixed", func() []Node { return []Node{Fixed{At: geo.Point{X: 12.5, Y: 7}}} }}}
	for _, pause := range []time.Duration{0, time.Second} {
		cfg := Config{Space: space, MinSpeed: 1, MaxSpeed: 20, Pause: pause}
		models = append(models, motionModel{fmt.Sprintf("waypoint/pause=%v", pause), func() []Node {
			w, err := NewWaypoint(cfg, sim.NewRNG(73).Stream("motion"))
			must(err)
			return []Node{w}
		}}, motionModel{fmt.Sprintf("manhattan/pause=%v", pause), func() []Node {
			m, err := NewManhattan(cfg, 50, sim.NewRNG(73).Stream("motion"))
			must(err)
			return []Node{m}
		}})
		for _, ref := range []string{"waypoint", "manhattan"} {
			for _, radius := range []float64{0, 50} {
				name := fmt.Sprintf("member/%s/radius=%v/pause=%v", ref, radius, pause)
				models = append(models, motionModel{name, func() []Node {
					rng := sim.NewRNG(73).Stream("motion")
					var g *Group
					var err error
					if ref == "waypoint" {
						g, err = NewGroup(cfg, radius, rng)
					} else {
						g, err = NewManhattanGroup(cfg, 50, radius, rng)
					}
					must(err)
					nodes := make([]Node, 5)
					for i := range nodes {
						nodes[i] = g.NewMember()
					}
					return nodes
				}})
			}
		}
	}
	return models
}

// TestMotionContract checks Node.Motion on every model against the three
// promises the medium's lazy position sync relies on:
//
//   - pos is bit-identical to Position(t) on a twin that only calls
//     Position;
//   - purity: a second twin that also gets extra Position calls at random
//     times in [t, until] gives bit-identical positions at every later
//     sample, so those calls drew nothing and changed nothing;
//   - speed bound: every extra call's position lies within
//     speed·(t′ − t) + 1e-9 m of pos.
//
// Nodes are sampled in shuffled order, a node sometimes sits a sample out
// (missing whole segments), and the next sample lands mid-piece, exactly
// on until, one nanosecond past it, or several segments later.
func TestMotionContract(t *testing.T) {
	for _, model := range motionModels(t) {
		t.Run(model.name, func(t *testing.T) {
			nodes, plain, extra := model.build(), model.build(), model.build()
			n := len(nodes)
			type piece struct {
				pos     geo.Point
				until   time.Duration
				speed   float64
				sampled bool
			}
			pieces := make([]piece, n)
			rng := sim.NewRNG(79).Stream("motion-contract")
			now, crossed := time.Duration(0), 0
			for step := 0; step < 400; step++ {
				horizon := time.Duration(math.MaxInt64)
				for _, i := range rng.Perm(n) {
					pieces[i] = piece{}
					if now > 0 && rng.Bool(0.2) {
						continue
					}
					pos, until, speed := nodes[i].Motion(now)
					if want := plain[i].Position(now); !sameBits(pos, want) {
						t.Fatalf("node %d at t=%v: Motion pos %v, Position %v", i, now, pos, want)
					}
					if twin := extra[i].Position(now); !sameBits(pos, twin) {
						t.Fatalf("node %d at t=%v: twin with extra calls at %v, want %v", i, now, twin, pos)
					}
					if until < now || !(speed >= 0) || math.IsInf(speed, 1) {
						t.Fatalf("node %d at t=%v: until %v, speed %v", i, now, until, speed)
					}
					pieces[i] = piece{pos: pos, until: until, speed: speed, sampled: true}
					horizon = min(horizon, until)
				}

				var next time.Duration
				jump := time.Duration(rng.Uniform(0, 30) * float64(time.Second))
				switch choice := rng.Intn(4); {
				case horizon == math.MaxInt64 || choice == 0:
					next = now + jump
				case choice == 1:
					next = rng.UniformDuration(now, horizon)
				case choice == 2:
					next = horizon
				default:
					next, crossed = horizon+1+jump/10, crossed+1
				}
				next = max(next, now)

				// Extra calls on the purity twin, in time order, none past a
				// piece's end or the next sample.
				last := min(horizon, next)
				times := []time.Duration{last}
				for range rng.Intn(4) {
					times = append(times, rng.UniformDuration(now, last))
				}
				slices.Sort(times)
				for _, at := range times {
					for i, pc := range pieces {
						if !pc.sampled || at > pc.until {
							continue
						}
						p := extra[i].Position(at)
						if drift, bound := geo.Dist(p, pc.pos), pc.speed*(at-now).Seconds()+1e-9; drift > bound {
							t.Fatalf("node %d: moved %v m in %v from t=%v, speed bound %v m", i, drift, at-now, now, bound)
						}
					}
				}
				now = next
			}
			if model.name != "fixed" && crossed < 50 {
				t.Fatalf("only %d samples crossed a piece end", crossed)
			}
		})
	}
}
