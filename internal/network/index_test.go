package network

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// movingPeer is a test peer whose position is a deterministic function of
// time, exercising the per-timestamp re-bucketing path of the spatial index.
type movingPeer struct {
	id     NodeID
	origin geo.Point
	vx, vy float64
	inbox  []Message
}

func (p *movingPeer) ID() NodeID { return p.id }
func (p *movingPeer) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	s := t.Seconds()
	return geo.Point{X: p.origin.X + p.vx*s, Y: p.origin.Y + p.vy*s}, math.MaxInt64, math.Hypot(p.vx, p.vy)
}
func (p *movingPeer) Receive(msg Message) { p.inbox = append(p.inbox, msg) }

// twinMediums builds a grid-indexed medium and a brute-force medium with
// identically-parameterised peer populations, returning both peer sets.
func twinMediums(t *testing.T, k *sim.Kernel, n int, seed int64) (*Medium, *Medium, []*movingPeer, []*movingPeer) {
	t.Helper()
	build := func(brute bool) (*Medium, []*movingPeer) {
		m, err := NewMedium(k, MediumConfig{
			BandwidthKbps: 2000,
			RangeM:        100,
			Power:         DefaultPowerModel(),
			BruteForce:    brute,
		}, NewMeter())
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed).Stream("index-equiv")
		peers := make([]*movingPeer, n)
		for i := range peers {
			peers[i] = &movingPeer{
				id:     NodeID(i + 1),
				origin: geo.Point{X: rng.Uniform(-300, 300), Y: rng.Uniform(-300, 300)},
				vx:     rng.Uniform(-20, 20),
				vy:     rng.Uniform(-20, 20),
			}
			if err := m.Register(peers[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m, peers
	}
	gm, gp := build(false)
	bm, bp := build(true)
	return gm, bm, gp, bp
}

// flip toggles one peer's connectivity on both twin mediums.
func flip(gm, bm *Medium, id NodeID) {
	gm.SetConnected(id, !gm.Connected(id))
	bm.SetConnected(id, !bm.Connected(id))
}

// TestNeighborsGridMatchesBrute compares the indexed and pairwise Neighbors
// across moving peers, advancing time and flipping connectivity between
// checks.
func TestNeighborsGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	const n = 40
	gm, bm, _, _ := twinMediums(t, k, n, 23)
	rng := sim.NewRNG(29).Stream("churn")

	check := func() {
		t.Helper()
		for i := 0; i < n; i++ {
			id := NodeID(i + 1)
			got := append([]NodeID(nil), gm.Neighbors(id)...)
			want := append([]NodeID(nil), bm.Neighbors(id)...)
			if len(got) != len(want) {
				t.Fatalf("t=%v Neighbors(%d): grid %v, brute %v", k.Now(), id, got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("t=%v Neighbors(%d): grid %v, brute %v", k.Now(), id, got, want)
				}
			}
		}
	}

	check()
	for step := 0; step < 30; step++ {
		k.Schedule(time.Duration(step+1)*time.Second, func() {})
		if err := k.Run(time.Duration(step+1) * time.Second); err != nil {
			t.Fatal(err)
		}
		// Flip one peer's connectivity in both worlds.
		flip(gm, bm, NodeID(rng.Intn(n)+1))
		check()
	}
}

// TestTrafficGridMatchesBrute runs identical Broadcast/Send traffic through
// a grid-indexed and a brute-force medium and requires identical delivery,
// drop, and per-node energy accounting. The uniform world is the linear
// movers of twinMediums. The adversarial world mixes movers that test the
// drift-bound decisions (DESIGN.md "Spatial index"): stationary hosts on
// and just off the range boundary, pieces that end mid-run, continuously
// or with a jump, a cluster near (1e9, 1e9) m, hosts whose position is
// NaN or infinite for a piece, and hosts on finite paths whose speed bound
// is NaN; connectivity flips among a few hosts, so they disconnect and
// reconnect within a piece.
func TestTrafficGridMatchesBrute(t *testing.T) {
	t.Run("uniform", func(t *testing.T) {
		k := sim.NewKernel()
		const n = 30
		gm, bm, gp, bp := twinMediums(t, k, n, 31)
		runTraffic(t, k, gm, bm, gp, bp, trafficPlan{seed: 37, steps: 60, flipP: 0.2, flipAmong: n})
	})
	t.Run("adversarial", func(t *testing.T) {
		k := sim.NewKernel()
		gm, gp := adversarialWorld(t, k, false)
		bm, bp := adversarialWorld(t, k, true)
		runTraffic(t, k, gm, bm, gp, bp, trafficPlan{seed: 53, steps: 400, flipP: 0.4, flipAmong: 6})
	})
}

// trafficPlan shapes runTraffic: its RNG seed, how many 50 ms steps it
// runs, the chance of a connectivity flip per step, and how many of the
// lowest IDs a flip picks from.
type trafficPlan struct {
	seed      int64
	steps     int
	flipP     float64
	flipAmong int
}

// runTraffic drives identical random traffic through twin mediums and
// compares their counters, energy and inboxes.
func runTraffic(t *testing.T, k *sim.Kernel, gm, bm *Medium, gp, bp []*movingPeer, plan trafficPlan) {
	t.Helper()
	n := len(gp)
	rng := sim.NewRNG(plan.seed).Stream("traffic")
	for step := 0; step < plan.steps; step++ {
		src := NodeID(rng.Intn(n) + 1)
		if rng.Bool(0.3) {
			gm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			bm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		} else {
			dst := NodeID(rng.Intn(n) + 1)
			gm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
			bm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
		}
		if rng.Bool(plan.flipP) {
			flip(gm, bm, NodeID(rng.Intn(plan.flipAmong)+1))
		}
		if err := k.Run(time.Duration(step+1) * 50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for k.Step() {
	}

	gs, gd, gdr, gb := gm.Stats()
	bs, bd, bdr, bb := bm.Stats()
	if gs != bs || gd != bd || gdr != bdr || gb != bb {
		t.Errorf("stats diverged: grid (%d,%d,%d,%d), brute (%d,%d,%d,%d)",
			gs, gd, gdr, gb, bs, bd, bdr, bb)
	}
	if gm.Drops() != bm.Drops() {
		t.Errorf("drop breakdown diverged: grid %+v, brute %+v", gm.Drops(), bm.Drops())
	}
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		if gv, bv := gm.Meter().Node(id), bm.Meter().Node(id); gv != bv {
			t.Errorf("node %d energy diverged: grid %v, brute %v", id, gv, bv)
		}
		if len(gp[i].inbox) != len(bp[i].inbox) {
			t.Errorf("node %d inbox diverged: grid %d msgs, brute %d msgs",
				id, len(gp[i].inbox), len(bp[i].inbox))
			continue
		}
		for j := range gp[i].inbox {
			if gp[i].inbox[j] != bp[i].inbox[j] {
				t.Errorf("node %d message %d diverged: grid %+v, brute %+v",
					id, j, gp[i].inbox[j], bp[i].inbox[j])
			}
		}
	}
}

// piece is one straight stretch of a piecePeer's path: it ends at end,
// starts where the previous piece ended (at time 0 for the first), at
// from, and moves at v m/s.
type piece struct {
	end  time.Duration
	from geo.Point
	v    geo.Point
}

// piecePeer moves along its pieces, the last of which never ends. A piece
// may start anywhere, so the path may jump where a piece ends, as the
// Motion contract allows. With nanSpeed its speed bound is NaN.
type piecePeer struct {
	movingPeer
	pieces   []piece
	nanSpeed bool
}

func (p *piecePeer) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	start, i := time.Duration(0), 0
	for t > p.pieces[i].end {
		start, i = p.pieces[i].end, i+1
	}
	pc, s := p.pieces[i], (t - start).Seconds()
	speed := math.Hypot(pc.v.X, pc.v.Y)
	if p.nanSpeed {
		speed = math.NaN()
	}
	return geo.Point{X: pc.from.X + pc.v.X*s, Y: pc.from.Y + pc.v.Y*s}, pc.end, speed
}

// adversarialWorld builds a medium (range 100 m) over the adversarial
// movers of TestTrafficGridMatchesBrute. Identical calls build identical
// worlds.
func adversarialWorld(t *testing.T, k *sim.Kernel, brute bool) (*Medium, []*movingPeer) {
	t.Helper()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
		Power:         DefaultPowerModel(),
		BruteForce:    brute,
	}, NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(47).Stream("adversarial")
	var peers []*movingPeer
	register := func(p *piecePeer) {
		p.id = NodeID(len(peers) + 1)
		if err := m.Register(p); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, &p.movingPeer)
	}
	add := func(pieces ...piece) { register(&piecePeer{pieces: pieces}) }
	still := func(x, y float64) { add(piece{end: math.MaxInt64, from: geo.Point{X: x, Y: y}}) }
	// path adds a mover whose pieces of 0.2-1.5 s end mid-run, around c
	// within ±spread m at up to 30 m/s, continuing where the last piece
	// ended or, with jump, starting afresh.
	path := func(c geo.Point, spread float64, jump bool) {
		var pieces []piece
		at, pos := time.Duration(0), geo.Point{X: c.X + rng.Uniform(-spread, spread), Y: c.Y + rng.Uniform(-spread, spread)}
		for at < 25*time.Second {
			d := time.Duration(rng.Uniform(0.2, 1.5) * float64(time.Second))
			v := geo.Point{X: rng.Uniform(-30, 30), Y: rng.Uniform(-30, 30)}
			if jump {
				pos = geo.Point{X: c.X + rng.Uniform(-spread, spread), Y: c.Y + rng.Uniform(-spread, spread)}
			}
			pieces = append(pieces, piece{end: at + d, from: pos, v: v})
			pos = geo.Point{X: pos.X + v.X*d.Seconds(), Y: pos.Y + v.Y*d.Seconds()}
			at += d
		}
		pieces[len(pieces)-1].end = math.MaxInt64
		add(pieces...)
	}
	origin, far := geo.Point{}, geo.Point{X: 1e9, Y: 1e9}
	for i := 0; i < 3; i++ { // the first six IDs take the connectivity flips
		path(origin, 150, false)
		path(origin, 150, true)
	}
	// Stationary hosts on the range boundary of (0, 0) and just off it.
	still(0, 0)
	still(100, 0)
	still(0, math.Nextafter(100, 200))
	still(-100*math.Sqrt2/2, -100*math.Sqrt2/2)
	for i := 0; i < 6; i++ {
		path(far, 150, i%2 == 0)
	}
	still(far.X, far.Y)
	still(far.X+100, far.Y)
	// Hosts with a NaN, then an infinite, then a finite piece.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		add(piece{end: time.Second, from: geo.Point{X: 10, Y: 10}, v: geo.Point{X: 5}},
			piece{end: 3 * time.Second, from: geo.Point{X: bad, Y: 20}, v: geo.Point{Y: 5}},
			piece{end: 4 * time.Second, from: geo.Point{X: 30, Y: bad}},
			piece{end: math.MaxInt64, from: geo.Point{X: 40, Y: 40}, v: geo.Point{X: -3, Y: 2}})
	}
	// Hosts on finite paths that report a NaN speed bound: one crossing
	// the origin cluster in a single piece, one that turns twice.
	register(&piecePeer{nanSpeed: true, pieces: []piece{
		{end: math.MaxInt64, from: geo.Point{X: -250, Y: 30}, v: geo.Point{X: 25, Y: -2}}}})
	register(&piecePeer{nanSpeed: true, pieces: []piece{
		{end: 6 * time.Second, from: geo.Point{X: 120, Y: -60}, v: geo.Point{X: -20, Y: 10}},
		{end: 12 * time.Second, from: geo.Point{X: 0, Y: 0}, v: geo.Point{X: 15, Y: 15}},
		{end: math.MaxInt64, from: geo.Point{X: 90, Y: 90}, v: geo.Point{X: -30}}}})
	return m, peers
}

// TestNeighborsSteadyStateAllocs pins the indexed Neighbors hot path at zero
// allocations once its scratch buffers have grown to steady state.
func TestNeighborsSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	const n = 50
	for i := 0; i < n; i++ {
		addPeer(t, m, NodeID(i+1), float64((i%10)*30), float64((i/10)*30))
	}
	// Warm up: fill the grid and grow all scratch buffers.
	for i := 0; i < n; i++ {
		m.Neighbors(NodeID(i + 1))
	}
	avg := testing.AllocsPerRun(200, func() {
		if m.Neighbors(7) == nil {
			t.Fatal("expected neighbors")
		}
	})
	if avg != 0 {
		t.Errorf("Neighbors allocates %.1f per call in steady state, want 0", avg)
	}
}
