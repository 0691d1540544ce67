package network

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// drawCall is one Motion call that can draw randomness: a call at a time
// past the end of the piece the peer's previous call reported.
type drawCall struct {
	at time.Duration
	id NodeID
}

// memberPeer moves with a real RPGM group member, so a Motion call that
// enters a new reference segment draws the group's next reference piece and
// the member's next offset from the group's shared RNG: the order of those
// calls decides every later position. It logs every call that can draw.
type memberPeer struct {
	movingPeer
	mob   *mobility.Member
	log   *[]drawCall
	until time.Duration
}

func (p *memberPeer) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	if t > p.until {
		*p.log = append(*p.log, drawCall{at: t, id: p.id})
	}
	pos, until, speed := p.mob.Motion(t)
	p.until = until
	return pos, until, speed
}

// memberWorld builds a medium over groups of RPGM members: radius 50 m and
// several members per group, Waypoint and Manhattan references alternating.
// Identical seeds build identical worlds.
func memberWorld(t *testing.T, k *sim.Kernel, brute bool, groups, perGroup int, seed int64) (*Medium, []*memberPeer, *[]drawCall) {
	t.Helper()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
		BruteForce:    brute,
	}, NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	cfg := mobility.Config{Space: geo.NewRect(300, 300), MinSpeed: 5, MaxSpeed: 20, Pause: time.Second}
	root := sim.NewRNG(seed)
	log := new([]drawCall)
	var peers []*memberPeer
	for g := 0; g < groups; g++ {
		rng := root.Stream(fmt.Sprintf("group-%d", g))
		var grp *mobility.Group
		if g%2 == 0 {
			grp, err = mobility.NewGroup(cfg, 50, rng)
		} else {
			grp, err = mobility.NewManhattanGroup(cfg, 60, 50, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perGroup; j++ {
			p := &memberPeer{
				movingPeer: movingPeer{id: NodeID(len(peers) + 1)},
				mob:        grp.NewMember(),
				log:        log,
				until:      -1,
			}
			if err := m.Register(p); err != nil {
				t.Fatal(err)
			}
			peers = append(peers, p)
		}
	}
	return m, peers, log
}

// TestPositionCallOrderGridMatchesBrute guards the Position-call-order
// contract (DESIGN.md "Spatial index", rule 2) with peers whose Motion
// draws randomness: identical Broadcast and Send traffic with
// connectivity flips must make the grid-indexed medium issue the calls that
// can draw in exactly the brute-force scan's order, leaving every member at
// the same final position. The lazy sync samples far fewer hosts than the
// scan, so only the calls that can draw are compared. Bursts of completions
// from different senders at one timestamp exercise the per-completion
// sampling of senders and destinations after the first sync at that time.
func TestPositionCallOrderGridMatchesBrute(t *testing.T) {
	k := sim.NewKernel()
	const groups, perGroup = 5, 4
	const n = groups * perGroup
	gm, gp, glog := memberWorld(t, k, false, groups, perGroup, 41)
	bm, bp, blog := memberWorld(t, k, true, groups, perGroup, 41)
	rng := sim.NewRNG(43).Stream("call-order")

	for step := 0; step < 400; step++ {
		src := NodeID(rng.Intn(n) + 1)
		switch rng.Intn(5) {
		case 0:
			gm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			bm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		case 1:
			// A beacon round: every host's completion lands on one timestamp.
			for id := NodeID(1); id <= n; id++ {
				gm.Broadcast(Message{Kind: KindBeacon, From: id, Size: BeaconSize})
				bm.Broadcast(Message{Kind: KindBeacon, From: id, Size: BeaconSize})
			}
		case 2:
			dst := NodeID(rng.Intn(n) + 1)
			gm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
			bm.Send(Message{Kind: KindData, From: src, To: dst, Size: 500})
		case 3:
			// A broadcast whose receivers are compared as soon as it
			// completes.
			gm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			bm.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
			for k.Step() {
			}
			for i := range gp {
				if got, want := len(gp[i].inbox), len(bp[i].inbox); got != want {
					t.Fatalf("t=%v broadcast from %d: host %d inbox grid %d msgs, brute %d", k.Now(), src, gp[i].id, got, want)
				}
			}
		case 4:
			// A burst: sends and broadcasts of one size from distinct
			// senders, all completing at one timestamp.
			for _, i := range rng.Perm(n)[:2+rng.Intn(6)] {
				from := NodeID(i + 1)
				if rng.Bool(0.5) {
					gm.Broadcast(Message{Kind: KindBeacon, From: from, Size: 500})
					bm.Broadcast(Message{Kind: KindBeacon, From: from, Size: 500})
					continue
				}
				dst := NodeID(rng.Intn(n) + 1)
				gm.Send(Message{Kind: KindData, From: from, To: dst, Size: 500})
				bm.Send(Message{Kind: KindData, From: from, To: dst, Size: 500})
			}
		}
		if rng.Bool(0.15) {
			flip(gm, bm, NodeID(rng.Intn(n)+1))
		}
		if err := k.Run(time.Duration(step+1) * 700 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for k.Step() {
	}

	if len(*blog) < 400 {
		t.Fatalf("brute made only %d calls that can draw", len(*blog))
	}
	if len(*glog) != len(*blog) {
		t.Fatalf("grid made %d calls that can draw, brute %d", len(*glog), len(*blog))
	}
	for i, want := range *blog {
		if got := (*glog)[i]; got != want {
			t.Fatalf("call %d that can draw: grid sampled host %d at %v, brute host %d at %v",
				i, got.id, got.at, want.id, want.at)
		}
	}
	end := k.Now() + time.Second
	for i := range gp {
		if got, want := gp[i].mob.Position(end), bp[i].mob.Position(end); got != want {
			t.Errorf("host %d final position: grid %v, brute %v", gp[i].id, got, want)
		}
		if gv, bv := gm.Meter().Node(gp[i].id), bm.Meter().Node(bp[i].id); gv != bv {
			t.Errorf("host %d energy: grid %v, brute %v", gp[i].id, gv, bv)
		}
		if len(gp[i].inbox) != len(bp[i].inbox) {
			t.Errorf("host %d inbox: grid %d msgs, brute %d msgs", gp[i].id, len(gp[i].inbox), len(bp[i].inbox))
		}
	}
	if gm.Drops() != bm.Drops() {
		t.Errorf("drops: grid %+v, brute %+v", gm.Drops(), bm.Drops())
	}
}
