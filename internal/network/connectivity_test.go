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
// host reconnected after its wake passed is sampled by the next query.
func TestSetConnected(t *testing.T) {
	for _, brute := range []bool{false, true} {
		t.Run(fmt.Sprintf("brute=%v", brute), func(t *testing.T) {
			k := sim.NewKernel()
			m, err := NewMedium(k, MediumConfig{
				BandwidthKbps: 2000,
				RangeM:        100,
				Power:         DefaultPowerModel(),
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
			wantNeighbors := func(id NodeID, want string) {
				t.Helper()
				if got := fmt.Sprint(m.Neighbors(id)); got != want {
					t.Fatalf("t=%v Neighbors(%d) = %s, want %s", k.Now(), id, got, want)
				}
			}

			wantNeighbors(1, "[2]")
			if len(c.sampled) == 0 {
				t.Fatal("far host not sampled by the first query")
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
			m.Broadcast(Message{Kind: KindBeacon, From: a.id, Size: BeaconSize})
			m.Broadcast(Message{Kind: KindBeacon, From: b.id, Size: BeaconSize})
			runTo(2 * time.Second)
			if len(a.inbox) != 1 || len(b.inbox) != 1 || len(c.inbox) != 0 {
				t.Fatalf("inboxes a=%d b=%d c=%d after off-off-on, want 1 1 0",
					len(a.inbox), len(b.inbox), len(c.inbox))
			}

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
			wantNeighbors(1, "[]")
			wantNeighbors(99, "[]")
			m.Broadcast(Message{Kind: KindBeacon, From: a.id, Size: BeaconSize})
			runTo(3 * time.Second)
			if got := samples() - before; got != 0 {
				t.Errorf("a sender with every peer off sampled %d times, want 0", got)
			}
			if len(b.inbox) != 1 {
				t.Errorf("disconnected b heard a: inbox %d, want 1", len(b.inbox))
			}

			// c comes back long past its wake, now in range of a: the next
			// query must sample it at the current time and find it.
			runTo(9600 * time.Millisecond)
			m.SetConnected(c.id, true)
			wantNeighbors(1, "[3]")
			if last := c.sampled[len(c.sampled)-1]; last != k.Now() {
				t.Errorf("reconnected host last sampled at %v, want %v", last, k.Now())
			}
		})
	}
}
