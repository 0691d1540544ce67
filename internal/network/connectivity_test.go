package network

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// sampledPeer is a movingPeer that logs the times the medium samples it at.
type sampledPeer struct {
	movingPeer
	sampled []time.Duration
}

func (p *sampledPeer) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	p.sampled = append(p.sampled, t)
	return p.movingPeer.Motion(t)
}

// TestSetConnected pins the connectivity API on a grid-indexed and a
// brute-force medium: repeated flips keep the connected count exact, an
// unknown ID is ignored, a sender with every peer off samples nobody, and a
// host reconnected after its wake passed is sampled by the next broadcast
// completion.
func TestSetConnected(t *testing.T) {
	for _, brute := range []bool{false, true} {
		t.Run(fmt.Sprintf("brute=%v", brute), func(t *testing.T) {
			k := sim.NewKernel()
			m, err := NewMedium(k, MediumConfig{
				BandwidthKbps: 2000,
				RangeM:        100,
				BruteForce:    brute,
			}, NewMeter())
			if err != nil {
				t.Fatal(err)
			}
			// a and b stand still in range of each other; c starts far away
			// and drives towards a, reaching x = 40 m at 9.6 s.
			a := &sampledPeer{movingPeer: movingPeer{id: 1}}
			b := &sampledPeer{movingPeer: movingPeer{id: 2, origin: geo.Point{X: 50}}}
			c := &sampledPeer{movingPeer: movingPeer{id: 3, origin: geo.Point{X: 1000}, vx: -100}}
			peers := []*sampledPeer{a, b, c}
			for _, p := range peers {
				if err := m.Register(p); err != nil {
					t.Fatal(err)
				}
			}
			samples := func() int {
				n := 0
				for _, p := range peers {
					n += len(p.sampled)
				}
				return n
			}
			runTo := func(at time.Duration) {
				t.Helper()
				k.Schedule(at-k.Now(), func() {})
				if err := k.Run(at); err != nil {
					t.Fatal(err)
				}
			}
			// wantHearers broadcasts from id and completes the frame.
			wantHearers := func(id NodeID, want string) {
				t.Helper()
				before := make([]int, len(peers))
				for i, p := range peers {
					before[i] = len(p.inbox)
				}
				m.Broadcast(Message{Kind: KindBeacon, From: id, Size: BeaconSize})
				for k.Step() {
				}
				var got []NodeID
				for i, p := range peers {
					if len(p.inbox) > before[i] {
						got = append(got, p.id)
					}
				}
				if fmt.Sprint(got) != want {
					t.Fatalf("t=%v broadcast from %d heard by %v, want %s", k.Now(), id, got, want)
				}
			}

			wantHearers(a.id, "[2]")
			if len(c.sampled) == 0 {
				t.Fatal("far host not sampled by the first completion")
			}
			m.SetConnected(c.id, false)
			runTo(time.Second) // past c's wake, which no longer counts

			// off, off, on: b is counted once, so a and b are the two
			// connected peers and hear each other.
			m.SetConnected(b.id, false)
			m.SetConnected(b.id, false)
			m.SetConnected(b.id, true)
			if !m.Connected(b.id) || m.Connected(c.id) {
				t.Fatalf("Connected: b %v, c %v; want true, false", m.Connected(b.id), m.Connected(c.id))
			}
			wantHearers(a.id, "[2]")
			wantHearers(b.id, "[1]")
			runTo(2 * time.Second)

			// With b and c off, a is alone: redundant or unknown flips must
			// not make the medium sample anyone for its traffic.
			m.SetConnected(b.id, false)
			m.SetConnected(a.id, true)
			m.SetConnected(99, true)
			m.SetConnected(99, false)
			if m.Connected(99) {
				t.Fatal("unknown peer reports connected")
			}
			before := samples()
			wantHearers(a.id, "[]")
			wantHearers(99, "[]")
			runTo(3 * time.Second)
			if got := samples() - before; got != 0 {
				t.Errorf("a sender with every peer off sampled %d times, want 0", got)
			}

			// c comes back long past its wake, now in range of a: the next
			// completion must sample it at its own time and deliver to it.
			runTo(9600 * time.Millisecond)
			m.SetConnected(c.id, true)
			wantHearers(a.id, "[3]")
			if last := c.sampled[len(c.sampled)-1]; last != k.Now() {
				t.Errorf("reconnected host last sampled at %v, want %v", last, k.Now())
			}
		})
	}
}
