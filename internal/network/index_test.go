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
// both mediums and requires identical delivery, drop, and per-node energy
// accounting.
func TestTrafficGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	const n = 30
	gm, bm, gp, bp := twinMediums(t, k, n, 31)
	rng := sim.NewRNG(37).Stream("traffic")

	for step := 0; step < 60; step++ {
		src := NodeID(rng.Intn(n) + 1)
		if rng.Bool(0.3) {
			gm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			bm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		} else {
			dst := NodeID(rng.Intn(n) + 1)
			gm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
			bm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
		}
		if rng.Bool(0.2) {
			flip(gm, bm, NodeID(rng.Intn(n)+1))
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
