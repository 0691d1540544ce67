package network

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/sim"
)

// benchPeer is a stationary peer whose Receive is a no-op, so the
// benchmark measures the medium, not inbox bookkeeping.
type benchPeer struct {
	id  NodeID
	pos geo.Point
}

func (p *benchPeer) ID() NodeID { return p.id }
func (p *benchPeer) Motion(time.Duration) (geo.Point, time.Duration, float64) {
	return p.pos, math.MaxInt64, 0
}
func (p *benchPeer) Receive(*Message) {}

// benchMedium builds a medium holding n stationary peers scattered at
// constant density (~20 hosts per transmission-range disc), so the indexed
// candidate count k stays fixed while N grows. Positions come from the
// deterministic sim RNG, identical across the grid and brute variants.
func benchMedium(b *testing.B, n int, brute bool) *Medium {
	b.Helper()
	k := sim.NewKernel()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 800,
		RangeM:        100,
		BruteForce:    brute,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	// Square world sized for ~20 hosts per pi*r^2 disc.
	side := 100 * math.Sqrt(math.Pi*float64(n)/20)
	rng := sim.NewRNG(int64(n)).Stream("bench-layout")
	for i := 0; i < n; i++ {
		p := &benchPeer{id: NodeID(i), pos: geo.Point{
			X: rng.Uniform(0, side),
			Y: rng.Uniform(0, side),
		}}
		if err := m.Register(p); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkBroadcast measures one full beacon round per op: every host
// broadcasts at the same instant and all completions land on one timestamp,
// exactly the NDP workload. The grid runs N O(k) queries (stationary peers
// are never re-sampled after their first); brute force runs N O(N) scans —
// the O(N·k) vs O(N²) distinction the spatial index exists for.
func BenchmarkBroadcast(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name  string
			brute bool
		}{{"grid", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				m := benchMedium(b, n, mode.brute)
				beacon := func() {
					for id := 0; id < n; id++ {
						m.Broadcast(Message{Kind: KindBeacon, From: NodeID(id), Size: BeaconSize})
					}
					for m.k.Step() {
					}
				}
				beacon() // warm the index, scratch buffers, and NIC events
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					beacon()
				}
			})
		}
	}
}

// rpgmPeer is a peer that moves with an RPGM group member and discards
// what it receives.
type rpgmPeer struct {
	id  NodeID
	mob *mobility.Member
}

func (p *rpgmPeer) ID() NodeID { return p.id }
func (p *rpgmPeer) Motion(t time.Duration) (geo.Point, time.Duration, float64) {
	return p.mob.Motion(t)
}
func (p *rpgmPeer) Receive(*Message) {}

// BenchmarkBeaconRound measures one beacon round per op over moving hosts:
// RPGM members at the paper's defaults (groups of 5, 50 m radius, 1-5 m/s,
// 1 s pauses, 100 hosts per km²). Each op advances the kernel clock by one
// beacon interval and has every host broadcast, so each round re-samples
// every host at least as sender, plus the hosts whose piece ended or whose
// drift budget ran out — the per-host sync cost that BenchmarkBroadcast's
// stationary peers never pay after their first round.
func BenchmarkBeaconRound(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("RPGM/N=%d", n), func(b *testing.B) {
			k := sim.NewKernel()
			m, err := NewMedium(k, MediumConfig{BandwidthKbps: 800, RangeM: 100}, nil)
			if err != nil {
				b.Fatal(err)
			}
			side := 1000 * math.Sqrt(float64(n)/100)
			cfg := mobility.Config{Space: geo.NewRect(side, side), MinSpeed: 1, MaxSpeed: 5, Pause: time.Second}
			rng := sim.NewRNG(int64(n)).Stream("bench-rpgm")
			var grp *mobility.Group
			for i := 0; i < n; i++ {
				if i%5 == 0 {
					if grp, err = mobility.NewGroup(cfg, 50, rng); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Register(&rpgmPeer{id: NodeID(i), mob: grp.NewMember()}); err != nil {
					b.Fatal(err)
				}
			}
			round := func() {
				for id := 0; id < n; id++ {
					m.Broadcast(Message{Kind: KindBeacon, From: NodeID(id), Size: BeaconSize})
				}
				if err := k.Run(k.Now() + time.Second); err != nil {
					b.Fatal(err)
				}
			}
			round() // grow the index, scratch buffers and event heap
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkMediumTransmit measures the full transmission path — NIC
// occupancy, completion-time range evaluation against every registered
// peer, per-receiver energy accounting, delivery — for one point-to-point
// send plus one broadcast across a 20-peer neighborhood. The derived
// events/sec figure is the medium-throughput entry of BENCH_seed.json.
func BenchmarkMediumTransmit(b *testing.B) {
	k := sim.NewKernel()
	m, err := NewMedium(k, MediumConfig{BandwidthKbps: 800, RangeM: 100}, nil)
	if err != nil {
		b.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := m.Register(&benchPeer{id: NodeID(i), pos: geo.Point{X: float64(i * 7), Y: 0}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NodeID(i % n)
		m.Send(Message{Kind: KindRequest, From: src, To: NodeID((i + 1) % n), Size: RequestSize})
		m.Broadcast(Message{Kind: KindBeacon, From: src, Size: BeaconSize})
		for k.Step() {
		}
	}
}

// BenchmarkServerLinkRoundTrip measures one MSS exchange on the server
// link: a Message-sized uplink send, its delivery to a no-op MSS handler,
// a downlink reply and its delivery to the client, each completion handing
// its receiver a pointer into the channel's ring.
func BenchmarkServerLinkRoundTrip(b *testing.B) {
	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{UplinkKbps: 200, DownlinkKbps: 2000}, nil)
	if err != nil {
		b.Fatal(err)
	}
	var delivered int
	link.SetHandler(func(*Message) {})
	link.SetDeliver(func(NodeID, *Message) bool { delivered++; return true })
	up := Message{Kind: KindServerRequest, From: 3, Size: RequestSize, Item: 42, Location: geo.Point{X: 1, Y: 2}}
	down := Message{Kind: KindServerReply, To: 3, Size: HeaderSize + 1000, Item: 42, TTL: time.Hour}
	round := func() {
		link.SendUp(up)
		link.SendDown(down)
		for k.Step() {
		}
	}
	round() // grow the rings and the event heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	if delivered != b.N+1 {
		b.Fatalf("delivered %d replies, want %d", delivered, b.N+1)
	}
}
