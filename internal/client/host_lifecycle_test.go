package client

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// generatorHost builds a host with a real workload generator so the closed
// request loop (Start → think → request → complete → ...) runs end to end
// inside the client package.
func (h *harness) addGeneratedHost(t *testing.T, id network.NodeID, x float64, cfg Config, accessFirst, accessSize int) *Host {
	t.Helper()
	rng := sim.NewRNG(int64(2000 + id))
	access, err := workload.NewAccessRange(workload.ItemID(accessFirst), accessSize, 1000, 0.5, rng.Stream("ar"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(access, 200*time.Millisecond, rng.Stream("gen"))
	if err != nil {
		t.Fatal(err)
	}
	host, err := NewHost(h.k, id, cfg, fixedAt(x), h.medium, h.link, gen, h.collector, rng, defaultNDPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.medium.Register(host); err != nil {
		t.Fatal(err)
	}
	h.hosts[id] = host
	return host
}

func TestClosedLoopLifecycleCompletes(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.WarmupRequests = 3
	cfg.MeasuredRequests = 7
	a := h.addGeneratedHost(t, 1, 0, cfg, 0, 50)
	done := false
	h.collector.onAllDone = func() { done = true }
	a.Start()
	h.run(time.Minute)
	if a.Completed() != 10 {
		t.Errorf("completed = %d, want 10", a.Completed())
	}
	if !done {
		t.Error("collector did not report all done")
	}
	if got := h.collector.Requests(); got != 7 {
		t.Errorf("measured requests = %d, want 7 (warmup excluded)", got)
	}
	if h.collector.MeasureStart() == 0 {
		t.Error("measure start not recorded")
	}
	if h.collector.OutcomeRatio(OutcomeServerRequest)+h.collector.OutcomeRatio(OutcomeLocalHit) < 0.999 {
		t.Error("outcome ratios do not partition requests")
	}
	if h.collector.TotalEnergy() == 0 {
		t.Error("no energy accounted")
	}
	if h.collector.EnergyPerGlobalHit() != h.collector.TotalEnergy() {
		t.Error("power/GCH with zero GCH should equal total energy")
	}
	if h.collector.LatencyQuantile(0.5) > h.collector.LatencyQuantile(0.99) {
		t.Error("latency quantiles disordered")
	}
}

func TestExplicitUpdateAfterSilence(t *testing.T) {
	h := newHarness(t, 1, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.ExplicitUpdateAfter = 2 * time.Second
	a := h.addHost(0, 10, 10, cfg)
	// Give the host something in its peer-access log to report.
	a.peerAccessLog = append(a.peerAccessLog, 5, 6, 7)
	a.Start()
	h.run(5 * time.Second)
	_, _, _, locUpdates := h.mss.Stats()
	if locUpdates == 0 {
		t.Error("no explicit location update after silence")
	}
}

func TestOnRecordHookFires(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	var hooked []Outcome
	h.collector.OnRecord = func(_ time.Duration, host network.NodeID, o Outcome, _ time.Duration) {
		if host != 1 {
			t.Errorf("hook host = %d", host)
		}
		hooked = append(hooked, o)
	}
	a.beginRequest(3)
	h.run(time.Second)
	if len(hooked) != 1 || hooked[0] != OutcomeServerRequest {
		t.Errorf("hooked outcomes = %v", hooked)
	}
}

func TestReceiveFromServerWhileDisconnected(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	a.setConnected(false)
	ok := a.ReceiveFromServer(network.Message{
		Kind: network.KindServerReply,
		To:   1,
		Item: 5,
		TTL:  time.Hour,
	})
	if ok {
		t.Error("disconnected host accepted a downlink message")
	}
	if a.Cache().Peek(5) != nil {
		t.Error("dropped message polluted the cache")
	}
}

func TestHybridHostTunesToBroadcast(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.Delivery = DeliveryHybrid
	a := h.addHost(1, 0, 0, cfg)
	catalog := h.mss.Catalog()
	disk, err := push.NewDisk(h.k, push.Config{
		BandwidthKbps:   10000,
		HotItems:        50,
		ListenPerSecond: 50000,
		Power:           network.DefaultPowerModel(),
	}, catalog, h.meter)
	if err != nil {
		t.Fatal(err)
	}
	a.SetBroadcastDisk(disk)
	disk.Start()
	// Item 5 is on the disk (initial hot set = first 50 IDs): the miss is
	// served by broadcast, not pull.
	a.beginRequest(5)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	if h.collector.Aux().BroadcastDeliveries != 1 {
		t.Errorf("broadcast deliveries = %d, want 1", h.collector.Aux().BroadcastDeliveries)
	}
	up, _, _ := h.link.Stats()
	if up != 0 {
		t.Errorf("uplink used %d times, want 0", up)
	}
	if a.Cache().Peek(5) == nil {
		t.Error("broadcast item not cached")
	}
	// Item 500 is off the disk: hybrid pulls it.
	a.beginRequest(500)
	h.run(time.Second)
	up, _, _ = h.link.Stats()
	if up != 1 {
		t.Errorf("uplink used %d times after off-disk miss, want 1", up)
	}
}

func TestDeliveryModelString(t *testing.T) {
	if DeliveryPull.String() != "pull" || DeliveryModel(9).String() != "unknown" {
		t.Error("delivery names wrong")
	}
	if OutcomeGlobalHit.String() != "global-hit" || OutcomeFailure.String() != "failure" {
		t.Error("outcome names wrong")
	}
}

// fixedAt builds a stationary mobility node at (x, 0).
func fixedAt(x float64) mobility.Node {
	return mobility.Fixed{At: geo.Point{X: x}}
}

func TestMembershipPayloadViaDownlink(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	ok := a.ReceiveFromServer(network.Message{
		Kind:  network.KindLocationUpdate,
		To:    0,
		Extra: &server.Changes{List: []server.MembershipChange{{Peer: 1, Joined: true}}},
	})
	if !ok {
		t.Fatal("connected host rejected downlink message")
	}
	if a.TCGSize() != 1 {
		t.Errorf("TCG size = %d after membership payload, want 1", a.TCGSize())
	}
	// Malformed payload is ignored without panic.
	a.ReceiveFromServer(network.Message{Kind: network.KindLocationUpdate, To: 0, Extra: 42})
	a.ReceiveFromServer(network.Message{Kind: network.KindBeacon, To: 0})
	if a.TCGSize() != 1 {
		t.Error("malformed payload disturbed state")
	}
}
