package ndp

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/network"
	"repro/internal/sim"
)

// host wires a test peer's beacon reception into its Protocol.
type host struct {
	id    network.NodeID
	pos   geo.Point
	proto *Protocol
}

func (h *host) ID() network.NodeID { return h.id }
func (h *host) Motion(time.Duration) (geo.Point, time.Duration, float64) {
	return h.pos, math.MaxInt64, 0
}
func (h *host) Receive(msg *network.Message) {
	if msg.Kind == network.KindBeacon {
		h.proto.HandleBeacon(msg.From)
	}
}

func setup(t *testing.T) (*sim.Kernel, *network.Medium) {
	t.Helper()
	k := sim.NewKernel()
	m, err := network.NewMedium(k, network.MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func newHost(t *testing.T, k *sim.Kernel, m *network.Medium, id network.NodeID, x float64, cfg Config) *host {
	t.Helper()
	h := &host{id: id, pos: geo.Point{X: x}}
	h.proto = New(k, m, id, cfg)
	if err := m.Register(h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNeighborsDiscoverEachOther(t *testing.T) {
	k, m := setup(t)
	var ups []network.NodeID
	cfgA := Config{OnUp: func(id network.NodeID) { ups = append(ups, id) }}
	a := newHost(t, k, m, 1, 0, cfgA)
	b := newHost(t, k, m, 2, 50, Config{})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) || !b.proto.Knows(1) {
		t.Error("hosts did not discover each other")
	}
	if len(ups) != 1 || ups[0] != 2 {
		t.Errorf("OnUp calls = %v, want [2]", ups)
	}
}

func TestOutOfRangeNotDiscovered(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{})
	b := newHost(t, k, m, 2, 500, Config{})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.Knows(2) || b.proto.Knows(1) {
		t.Error("out-of-range hosts discovered each other")
	}
}

func TestLinkFailureDetection(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{})
	b := newHost(t, k, m, 2, 50, Config{})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) {
		t.Fatal("precondition: a should know b")
	}
	// b disconnects (stops beaconing and receiving).
	m.SetConnected(b.id, false)
	b.proto.Stop()
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.Knows(2) {
		t.Error("a still knows b after silence")
	}
}

func TestReconnectRediscovers(t *testing.T) {
	k, m := setup(t)
	var ups int
	a := newHost(t, k, m, 1, 0, Config{OnUp: func(network.NodeID) { ups++ }})
	b := newHost(t, k, m, 2, 50, Config{})
	a.proto.Start()
	b.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetConnected(b.id, false)
	b.proto.Stop()
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	m.SetConnected(b.id, true)
	b.proto.Start()
	if err := k.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !a.proto.Knows(2) {
		t.Error("a did not rediscover b after reconnect")
	}
	if ups != 2 {
		t.Errorf("OnUp count = %d, want 2 (initial + reconnect)", ups)
	}
}

func TestStopClearsNeighbors(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{})
	newHost(t, k, m, 2, 30, Config{}).proto.Start()
	newHost(t, k, m, 3, 60, Config{}).proto.Start()
	a.proto.Start()
	if err := k.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a.proto.NeighborCount() != 2 {
		t.Fatalf("neighbor count = %d, want 2", a.proto.NeighborCount())
	}
	a.proto.Stop()
	if a.proto.NeighborCount() != 0 {
		t.Errorf("neighbor count after Stop = %d, want 0", a.proto.NeighborCount())
	}
	if a.proto.Running() {
		t.Error("protocol still running after Stop")
	}
	// Beacons received while stopped are ignored.
	a.proto.HandleBeacon(2)
	if a.proto.NeighborCount() != 0 {
		t.Error("stopped protocol recorded a beacon")
	}
}

func TestStartIdempotent(t *testing.T) {
	k, m := setup(t)
	a := newHost(t, k, m, 1, 0, Config{})
	a.proto.Start()
	a.proto.Start() // second Start is a no-op
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// With a single beacon loop, the node sends ~5 beacons in 5 s (one per
	// second starting at 0), not ~10.
	sent, _, _, _ := m.Stats()
	if sent < 5 || sent > 7 {
		t.Errorf("beacons sent = %d, want ~5-6", sent)
	}
}

// TestNeighborTable drives one protocol's neighbor table directly: the
// protocol beacons every Interval (one second) and drops a neighbor silent
// for more than MissedCycles (two) periods.
func TestNeighborTable(t *testing.T) {
	const ms = time.Millisecond
	type step struct {
		at          time.Duration
		from        network.NodeID // a beacon heard from, unless stop or start
		stop, start bool
	}
	tests := []struct {
		name  string
		steps []step
		until time.Duration
		ups   []network.NodeID
		known []network.NodeID
	}{
		{"first hear fires OnUp once", []step{{at: 100 * ms, from: 5}, {at: 500 * ms, from: 5}, {at: 1500 * ms, from: 5}},
			2 * time.Second, []network.NodeID{5}, []network.NodeID{5}},
		{"expiry after MissedCycles", []step{{at: 100 * ms, from: 5}, {at: 100 * ms, from: 6}, {at: 100 * ms, from: 7}, {at: 1500 * ms, from: 6}},
			3500 * ms, []network.NodeID{5, 6, 7}, []network.NodeID{6}},
		{"expired neighbor comes back up", []step{{at: 100 * ms, from: 5}, {at: 3500 * ms, from: 5}},
			4 * time.Second, []network.NodeID{5, 5}, []network.NodeID{5}},
		{"Stop clears the table", []step{{at: 100 * ms, from: 3}, {at: 100 * ms, from: 9}, {at: 100 * ms, from: 0}, {at: 200 * ms, stop: true}},
			time.Second, []network.NodeID{3, 9, 0}, nil},
		{"back up after Stop", []step{{at: 100 * ms, from: 5}, {at: 200 * ms, stop: true}, {at: 300 * ms, start: true}, {at: 400 * ms, from: 5}},
			time.Second, []network.NodeID{5, 5}, []network.NodeID{5}},
		{"beacons while stopped are ignored", []step{{at: 50 * ms, stop: true}, {at: 100 * ms, from: 5}},
			time.Second, nil, nil},
		{"negative IDs are ignored", []step{{at: 100 * ms, from: -1}, {at: 200 * ms, from: -7}},
			time.Second, nil, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k, m := setup(t)
			var ups []network.NodeID
			p := New(k, m, 1, Config{OnUp: func(id network.NodeID) { ups = append(ups, id) }})
			p.Start()
			for _, s := range tt.steps {
				k.At(s.at, func() {
					switch {
					case s.stop:
						p.Stop()
					case s.start:
						p.Start()
					default:
						p.HandleBeacon(s.from)
					}
				})
			}
			if err := k.Run(tt.until); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ups, tt.ups) {
				t.Errorf("OnUp fired for %v, want %v", ups, tt.ups)
			}
			if p.NeighborCount() != len(tt.known) {
				t.Errorf("NeighborCount = %d, want %d", p.NeighborCount(), len(tt.known))
			}
			for id := network.NodeID(-2); id < 12; id++ {
				if want := slices.Contains(tt.known, id); p.Knows(id) != want {
					t.Errorf("Knows(%d) = %v, want %v", id, p.Knows(id), want)
				}
			}
		})
	}
}

// TestHandleBeaconSteadyStateAllocs pins hearing known neighbors at zero
// allocations once the table has grown to the largest ID heard.
func TestHandleBeaconSteadyStateAllocs(t *testing.T) {
	k, m := setup(t)
	p := New(k, m, 1, Config{OnUp: func(network.NodeID) {}})
	p.Start()
	round := func() {
		for id := network.NodeID(0); id < 50; id++ {
			p.HandleBeacon(id)
		}
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("hearing 50 known neighbors allocates %.1f times, want 0", avg)
	}
	if p.NeighborCount() != 50 {
		t.Errorf("NeighborCount = %d, want 50", p.NeighborCount())
	}
}
