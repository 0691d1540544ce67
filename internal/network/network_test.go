package network

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// testPeer is a stationary scriptable peer.
type testPeer struct {
	id    NodeID
	pos   geo.Point
	inbox []Message
}

func (p *testPeer) ID() NodeID { return p.id }
func (p *testPeer) Motion(time.Duration) (geo.Point, time.Duration, float64) {
	return p.pos, math.MaxInt64, 0
}
func (p *testPeer) Receive(msg *Message) { p.inbox = append(p.inbox, *msg) }

var _ Peer = (*testPeer)(nil)

func newTestMedium(t *testing.T, k *sim.Kernel) (*Medium, *Meter) {
	t.Helper()
	meter := NewMeter()
	m, err := NewMedium(k, MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
	}, meter)
	if err != nil {
		t.Fatal(err)
	}
	return m, meter
}

func addPeer(t *testing.T, m *Medium, id NodeID, x, y float64) *testPeer {
	t.Helper()
	p := &testPeer{id: id, pos: geo.Point{X: x, Y: y}}
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTxTime(t *testing.T) {
	// 1000 bytes at 2000 kbps = 8000 bits / 2,000,000 bps = 4 ms.
	if got := TxTime(1000, 2000); got != 4*time.Millisecond {
		t.Errorf("TxTime = %v, want 4ms", got)
	}
	if TxTime(0, 2000) != 0 || TxTime(100, 0) != 0 {
		t.Error("degenerate TxTime not zero")
	}
}

func TestMediumConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewMedium(k, MediumConfig{BandwidthKbps: 0, RangeM: 100}, nil); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewMedium(k, MediumConfig{BandwidthKbps: 100, RangeM: 0}, nil); err == nil {
		t.Error("zero range accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	if err := m.Register(&testPeer{id: 1}); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestRegisterRejectsNegativeID(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	for _, id := range []NodeID{BroadcastID, -7} {
		if err := m.Register(&testPeer{id: id}); err == nil {
			t.Errorf("registration of ID %d accepted", id)
		}
	}
	addPeer(t, m, 0, 0, 0) // ID 0 is a host
}

func TestBroadcastReachesOnlyInRangeConnected(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	src := addPeer(t, m, 1, 0, 0)
	near := addPeer(t, m, 2, 50, 0)
	far := addPeer(t, m, 3, 500, 0)
	off := addPeer(t, m, 4, 10, 0)
	m.SetConnected(off.id, false)
	_ = src

	m.Broadcast(Message{Kind: KindRequest, From: 1, Size: RequestSize})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(near.inbox) != 1 {
		t.Errorf("near peer got %d messages, want 1", len(near.inbox))
	}
	if len(far.inbox) != 0 {
		t.Errorf("far peer got %d messages, want 0", len(far.inbox))
	}
	if len(off.inbox) != 0 {
		t.Errorf("disconnected peer got %d messages, want 0", len(off.inbox))
	}
	if len(near.inbox) == 1 && near.inbox[0].To != BroadcastID {
		t.Errorf("broadcast To = %d, want BroadcastID", near.inbox[0].To)
	}
}

func TestBroadcastPowerAccounting(t *testing.T) {
	k := sim.NewKernel()
	m, meter := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	addPeer(t, m, 2, 50, 0)
	addPeer(t, m, 3, 60, 0)

	const size = 100
	m.Broadcast(Message{Kind: KindRequest, From: 1, Size: size})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	pm := Power
	if got, want := meter.Node(1), pm.BSend.Energy(size); math.Abs(got-want) > 1e-9 {
		t.Errorf("sender energy = %v, want %v", got, want)
	}
	for _, id := range []NodeID{2, 3} {
		if got, want := meter.Node(id), pm.BRecv.Energy(size); math.Abs(got-want) > 1e-9 {
			t.Errorf("receiver %d energy = %v, want %v", id, got, want)
		}
	}
	if got := meter.Category(EnergyBroadcastSend); got != pm.BSend.Energy(size) {
		t.Errorf("category bsend = %v", got)
	}
}

func TestSendDeliversAndChargesBystanders(t *testing.T) {
	k := sim.NewKernel()
	m, meter := newTestMedium(t, k)
	// Layout: src(0,0) dst(80,0); bystanders: both(40,0), srcOnly(-50,0),
	// dstOnly(130,0), nobody(300,300).
	addPeer(t, m, 1, 0, 0)
	dst := addPeer(t, m, 2, 80, 0)
	addPeer(t, m, 3, 40, 0)
	addPeer(t, m, 4, -50, 0)
	addPeer(t, m, 5, 130, 0)
	addPeer(t, m, 6, 300, 300)

	const size = 200
	m.Send(Message{Kind: KindData, From: 1, To: 2, Size: size})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(dst.inbox) != 1 {
		t.Fatalf("destination got %d messages", len(dst.inbox))
	}
	pm := Power
	checks := []struct {
		id   NodeID
		want float64
	}{
		{1, pm.Send.Energy(size)},
		{2, pm.Recv.Energy(size)},
		{3, pm.DiscardBoth.Energy(size)},
		{4, pm.DiscardSrc.Energy(size)},
		{5, pm.DiscardDst.Energy(size)},
		{6, 0},
	}
	for _, c := range checks {
		if got := meter.Node(c.id); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("node %d energy = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestSendToUnreachableIsDropped(t *testing.T) {
	k := sim.NewKernel()
	m, meter := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	far := addPeer(t, m, 2, 1000, 0)
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 40})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(far.inbox) != 0 {
		t.Error("out-of-range destination received message")
	}
	_, _, dropped, _ := m.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	// Sender still paid to transmit.
	if meter.Node(1) == 0 {
		t.Error("sender not charged for failed transmission")
	}
}

func TestSendFromDisconnectedIsDropped(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	src := addPeer(t, m, 1, 0, 0)
	dst := addPeer(t, m, 2, 10, 0)
	m.SetConnected(src.id, false)
	m.Send(Message{Kind: KindReply, From: 1, To: 2, Size: 40})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(dst.inbox) != 0 {
		t.Error("message from disconnected sender delivered")
	}
}

func TestNICQueueingSerialisesTransmissions(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	dst := addPeer(t, m, 2, 10, 0)
	// Two 1000-byte messages at 2000 kbps: 4 ms each, serialised on the
	// sender NIC -> arrivals at 4 ms and 8 ms.
	var arrivals []time.Duration
	probe := func() {
		if len(dst.inbox) > len(arrivals) {
			arrivals = append(arrivals, k.Now())
		}
	}
	m.Send(Message{Kind: KindData, From: 1, To: 2, Size: 1000})
	m.Send(Message{Kind: KindData, From: 1, To: 2, Size: 1000})
	// Probe half a millisecond after each whole millisecond so probes never
	// race same-time delivery events.
	for ms := 0; ms <= 20; ms++ {
		k.Schedule(time.Duration(ms)*time.Millisecond+500*time.Microsecond, probe)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(dst.inbox) != 2 {
		t.Fatalf("destination got %d messages", len(dst.inbox))
	}
	want := []time.Duration{
		4*time.Millisecond + 500*time.Microsecond,
		8*time.Millisecond + 500*time.Microsecond,
	}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Errorf("arrivals = %v, want %v", arrivals, want)
	}
}

// TestNeighbors checks who hears a broadcast: the connected peers in range
// of the sender, never the sender itself, and nobody when the medium does
// not know the sender.
func TestNeighbors(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	peers := []*testPeer{
		addPeer(t, m, 1, 0, 0),
		addPeer(t, m, 2, 50, 0),
		addPeer(t, m, 3, 99, 0),
		addPeer(t, m, 4, 101, 0),
	}
	hearers := func(from NodeID) []NodeID {
		t.Helper()
		before := make([]int, len(peers))
		for i, p := range peers {
			before[i] = len(p.inbox)
		}
		m.Broadcast(Message{Kind: KindBeacon, From: from, Size: BeaconSize})
		for k.Step() {
		}
		var got []NodeID
		for i, p := range peers {
			if len(p.inbox) > before[i] {
				got = append(got, p.id)
			}
		}
		return got
	}
	if got := hearers(1); !slices.Equal(got, []NodeID{2, 3}) {
		t.Errorf("broadcast from 1 heard by %v, want [2 3]", got)
	}
	m.SetConnected(3, false)
	if got := hearers(1); !slices.Equal(got, []NodeID{2}) {
		t.Errorf("broadcast from 1 after disconnect heard by %v, want [2]", got)
	}
	if got := hearers(99); got != nil {
		t.Errorf("broadcast from an unknown node heard by %v", got)
	}
}

func TestServerLinkRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	meter := NewMeter()
	link, err := NewServerLink(k, ServerLinkConfig{
		UplinkKbps:   200,
		DownlinkKbps: 2000,
	}, meter)
	if err != nil {
		t.Fatal(err)
	}
	var serverGot []Message
	var clientGot []Message
	link.SetHandler(func(msg *Message) {
		serverGot = append(serverGot, *msg)
		link.SendDown(Message{Kind: KindServerReply, To: msg.From, Size: 1000})
	})
	link.SetDeliver(func(to NodeID, msg *Message) bool {
		clientGot = append(clientGot, *msg)
		return true
	})
	link.SendUp(Message{Kind: KindServerRequest, From: 7, Size: 50})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(serverGot) != 1 || serverGot[0].From != 7 {
		t.Fatalf("server got %v", serverGot)
	}
	if len(clientGot) != 1 {
		t.Fatalf("client got %d messages", len(clientGot))
	}
	if meter.Node(7) == 0 {
		t.Error("client charged no energy for server exchange")
	}
	up, down, dropped := link.Stats()
	if up != 1 || down != 1 || dropped != 0 {
		t.Errorf("stats = (%d, %d, %d)", up, down, dropped)
	}
}

func TestServerLinkValidation(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewServerLink(k, ServerLinkConfig{UplinkKbps: 0, DownlinkKbps: 100}, nil); err == nil {
		t.Error("zero uplink accepted")
	}
	if _, err := NewServerLink(k, ServerLinkConfig{UplinkKbps: 100, DownlinkKbps: -1}, nil); err == nil {
		t.Error("negative downlink accepted")
	}
}

func TestServerLinkDownlinkQueueing(t *testing.T) {
	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{
		UplinkKbps:   200,
		DownlinkKbps: 2000, // 4 ms per 1000-byte reply
	}, NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []time.Duration
	link.SetDeliver(func(to NodeID, msg *Message) bool {
		arrivals = append(arrivals, k.Now())
		return true
	})
	for i := 0; i < 3; i++ {
		link.SendDown(Message{Kind: KindServerReply, To: 1, Size: 1000})
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 12 * time.Millisecond}
	for i, w := range want {
		if arrivals[i] != w {
			t.Errorf("arrival[%d] = %v, want %v", i, arrivals[i], w)
		}
	}
}

func TestServerLinkDeliverRejection(t *testing.T) {
	k := sim.NewKernel()
	meter := NewMeter()
	link, err := NewServerLink(k, ServerLinkConfig{
		UplinkKbps: 200, DownlinkKbps: 2000,
	}, meter)
	if err != nil {
		t.Fatal(err)
	}
	link.SetDeliver(func(NodeID, *Message) bool { return false })
	link.SendDown(Message{Kind: KindServerReply, To: 3, Size: 500})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, dropped := link.Stats()
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if meter.Node(3) != 0 {
		t.Error("disconnected client charged receive energy")
	}
}

func TestMeterBasics(t *testing.T) {
	m := NewMeter()
	m.Charge(1, EnergyP2PSend, 10)
	m.Charge(1, EnergyP2PRecv, 5)
	m.Charge(2, EnergyP2PSend, 3)
	m.Charge(2, EnergyP2PSend, -7) // ignored
	if m.Total() != 18 {
		t.Errorf("Total = %v", m.Total())
	}
	if m.Node(1) != 15 || m.Node(2) != 3 {
		t.Errorf("per-node = %v, %v", m.Node(1), m.Node(2))
	}
	if m.Category(EnergyP2PSend) != 13 {
		t.Errorf("category send = %v", m.Category(EnergyP2PSend))
	}
	if m.Category(EnergyCategory(0)) != 0 || m.Category(numEnergyCategories) != 0 {
		t.Error("out-of-range category non-zero")
	}
	if m.Node(0) != 0 || m.Node(3) != 0 || m.Node(-1) != 0 {
		t.Error("uncharged node has energy")
	}
	m.Charge(5, EnergyP2PRecv, 4)
	if got, want := m.Accounts(), []float64{15, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("Accounts = %v, want %v (charged nodes in ID order)", got, want)
	}
	m.Reset()
	if m.Total() != 0 || m.Node(1) != 0 || len(m.Accounts()) != 0 {
		t.Error("Reset left energy")
	}
	m.Charge(2, EnergyP2PSend, 6)
	if got, want := m.Accounts(), []float64{6}; !slices.Equal(got, want) {
		t.Errorf("Accounts after Reset = %v, want %v", got, want)
	}
}

func TestLinearCost(t *testing.T) {
	c := LinearCost{V: 2, F: 100}
	if got := c.Energy(50); got != 200 {
		t.Errorf("Energy(50) = %v, want 200", got)
	}
	if got := c.Energy(-5); got != 100 {
		t.Errorf("Energy(-5) = %v, want fixed cost only", got)
	}
}

func TestKindString(t *testing.T) {
	if KindRequest.String() != "request" {
		t.Errorf("KindRequest = %q", KindRequest.String())
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("unknown kind = %q", Kind(200).String())
	}
}

func TestMeterBreakdownAndCategoryNames(t *testing.T) {
	m := NewMeter()
	m.Charge(1, EnergyP2PSend, 100)
	m.Charge(1, EnergyBroadcastRecv, 50)
	b := m.Breakdown()
	if b["p2p-send"] != 100 || b["bcast-recv"] != 50 {
		t.Errorf("Breakdown = %v", b)
	}
	if len(b) != 2 {
		t.Errorf("Breakdown has %d entries, want 2 (zeros omitted)", len(b))
	}
	if EnergyP2PDiscard.String() != "p2p-discard" {
		t.Errorf("category name = %q", EnergyP2PDiscard.String())
	}
	if EnergyCategory(0).String() != "unknown" || numEnergyCategories.String() != "unknown" {
		t.Error("out-of-range category name not unknown")
	}
	if sum := b["p2p-send"] + b["bcast-recv"]; sum != m.Total() {
		t.Errorf("breakdown sum %v != total %v", sum, m.Total())
	}
}

func TestServerLinkTxTimes(t *testing.T) {
	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{
		UplinkKbps: 200, DownlinkKbps: 2000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	up, down := link.TxTimes(1000)
	if up != TxTime(1000, 200) || down != TxTime(1000, 2000) {
		t.Errorf("TxTimes = (%v, %v)", up, down)
	}
	if up <= down {
		t.Error("uplink should be slower than downlink at these bandwidths")
	}
}

func TestMediumStats(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	addPeer(t, m, 1, 0, 0)
	addPeer(t, m, 2, 50, 0)
	m.Broadcast(Message{Kind: KindRequest, From: 1, Size: 40})
	m.Send(Message{Kind: KindReply, From: 2, To: 1, Size: 40})
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	sent, delivered, dropped, bytes := m.Stats()
	if sent != 2 || delivered != 2 || dropped != 0 || bytes != 80 {
		t.Errorf("stats = (%d, %d, %d, %d)", sent, delivered, dropped, bytes)
	}
	if m.RangeM() != 100 {
		t.Errorf("RangeM = %v", m.RangeM())
	}
	if m.Meter() == nil {
		t.Error("Meter() nil")
	}
}

// TestTransmitSteadyStateAllocs pins two point-to-point sends and a
// broadcast with nil payloads, run to completion, at zero allocations once
// the NIC's waiting ring, the event heap, the meter and the medium's
// scratch buffers have grown.
func TestTransmitSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	m, _ := newTestMedium(t, k)
	for i := 0; i < 5; i++ {
		if err := m.Register(&benchPeer{id: NodeID(i), pos: geo.Point{X: float64(i * 20)}}); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		m.Send(Message{Kind: KindRequest, From: 0, To: 1, Size: RequestSize})
		m.Send(Message{Kind: KindRequest, From: 0, To: 2, Size: RequestSize}) // waits for the first
		m.Broadcast(Message{Kind: KindBeacon, From: 0, Size: BeaconSize})
		for k.Step() {
		}
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("a transmission round allocates %.1f times, want 0", avg)
	}
	if _, delivered, dropped, _ := m.Stats(); delivered != 202*6 || dropped != 0 {
		t.Errorf("delivered %d, dropped %d; want %d, 0", delivered, dropped, 202*6)
	}
}

// TestServerLinkSteadyStateAllocs pins an uplink and a downlink
// transmission with no-op handlers at zero allocations once the event heap
// and the meter have grown.
func TestServerLinkSteadyStateAllocs(t *testing.T) {
	k := sim.NewKernel()
	link, err := NewServerLink(k, ServerLinkConfig{UplinkKbps: 200, DownlinkKbps: 2000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	link.SetHandler(func(*Message) {})
	link.SetDeliver(func(NodeID, *Message) bool { return true })
	round := func() {
		link.SendUp(Message{Kind: KindServerRequest, From: 3, Size: ControlSize})
		link.SendDown(Message{Kind: KindServerReply, To: 3, Size: 1000})
		for k.Step() {
		}
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("an uplink and downlink round allocates %.1f times, want 0", avg)
	}
	if up, down, dropped := link.Stats(); up != 202 || down != 202 || dropped != 0 {
		t.Errorf("stats = (%d, %d, %d), want (202, 202, 0)", up, down, dropped)
	}
}
