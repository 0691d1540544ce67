package client

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// harness assembles a full miniature system: kernel, medium, server link,
// MSS, and a set of stationary, manually driven hosts.
type harness struct {
	t         *testing.T
	k         *sim.Kernel
	meter     *network.Meter
	medium    *network.Medium
	link      *network.ServerLink
	mss       *server.MSS
	collector *Collector
	hosts     map[network.NodeID]*Host
}

func newHarness(t *testing.T, numHosts int, withTCG bool) *harness {
	t.Helper()
	k := sim.NewKernel()
	meter := network.NewMeter()
	medium, err := network.NewMedium(k, network.MediumConfig{
		BandwidthKbps: 2000,
		RangeM:        100,
	}, meter)
	if err != nil {
		t.Fatal(err)
	}
	link, err := network.NewServerLink(k, network.ServerLinkConfig{
		UplinkKbps:   200,
		DownlinkKbps: 2000,
	}, meter)
	if err != nil {
		t.Fatal(err)
	}
	catalog, err := server.NewCatalog(k, 1000, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var tcg *server.TCGManager
	if withTCG {
		tcg, err = server.NewTCGManager(numHosts, 1000, server.TCGConfig{
			DistanceThreshold:   100,
			SimilarityThreshold: 0.8,
			DistanceWeight:      0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	mss, err := server.NewMSS(k, link, catalog, tcg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:      t,
		k:      k,
		meter:  meter,
		medium: medium,
		link:   link,
		mss:    mss,
		hosts:  make(map[network.NodeID]*Host),
	}
	// Only the manually driven host completes requests, so the collector
	// tracks a single warm/done host regardless of how many peers exist.
	h.collector = NewCollector(1, DefaultConfig().GroupSize, meter, nil)
	_ = numHosts
	link.SetDeliver(func(to network.NodeID, msg *network.Message) bool {
		host, ok := h.hosts[to]
		if !ok {
			return false
		}
		return host.ReceiveFromServer(msg)
	})
	return h
}

// testClientConfig is the Table II defaults with a small cache, no
// warm-up, a long measured quota, the default rescue factor and no
// recovery policy.
func testClientConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.CacheSize = 10
	cfg.WarmupRequests = 0
	cfg.MeasuredRequests = 1000
	cfg.ServerRescueFactor = 0
	cfg.Resilience = resilience.Policy{}
	return cfg
}

// addHost creates a stationary manually driven host.
func (h *harness) addHost(id network.NodeID, x, y float64, cfg Config) *Host {
	h.t.Helper()
	return h.addBehind(id, x, y, cfg, func(host *Host) network.Peer { return host })
}

// addBehind creates a stationary manually driven host, like addHost, and
// registers on the medium the peer wrap returns for it.
func (h *harness) addBehind(id network.NodeID, x, y float64, cfg Config, wrap func(*Host) network.Peer) *Host {
	h.t.Helper()
	host, err := NewHost(
		h.k, id, &cfg, cfg.WarmupRequests, cfg.MeasuredRequests,
		mobility.Fixed{At: geo.Point{X: x, Y: y}},
		h.medium, h.link, nil, h.collector,
		sim.Seed(1000+id),
	)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.medium.Register(wrap(host)); err != nil {
		h.t.Fatal(err)
	}
	h.hosts[id] = host
	return host
}

// workloadID shortens workload.ItemID conversions in tests.
func workloadID(i int) workload.ItemID { return workload.ItemID(i) }

func (h *harness) run(d time.Duration) {
	h.t.Helper()
	if err := h.k.Run(h.k.Now() + d); err != nil {
		h.t.Fatal(err)
	}
}

func TestLocalCacheHit(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	if err := a.Preload(5, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(5)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeLocalHit); got != 1 {
		t.Errorf("local hits = %d, want 1", got)
	}
	if got := h.collector.MeanLatency(); got != 0 {
		t.Errorf("LCH latency = %v, want 0", got)
	}
}

func TestSCMissGoesToServer(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	a.beginRequest(7)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("server requests = %d, want 1", got)
	}
	// Uplink 40 B @ 200 kbps = 1.6 ms; downlink 4136 B @ 2000 kbps ≈ 16.5
	// ms. Expect ~18 ms.
	lat := h.collector.MeanLatency()
	if lat < 15*time.Millisecond || lat > 25*time.Millisecond {
		t.Errorf("server latency = %v, want ~18ms", lat)
	}
	// The item is now cached: a repeat is a local hit.
	a.beginRequest(7)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeLocalHit); got != 1 {
		t.Errorf("repeat local hits = %d, want 1", got)
	}
}

func TestCOCAGlobalCacheHit(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("global hits = %d (outcomes %v)", got, h.collector.outcomes)
	}
	// GCH latency is dominated by the 4136-byte P2P data transfer ≈ 16.5 ms
	// plus three control messages ≈ 0.5 ms.
	lat := h.collector.MeanLatency()
	if lat < 10*time.Millisecond || lat > 30*time.Millisecond {
		t.Errorf("GCH latency = %v, want ~17ms", lat)
	}
	// Requester now caches the item.
	if a.Cache().Peek(9) == nil {
		t.Error("requester did not cache the item after GCH")
	}
}

func TestCOCATimeoutFallsBackToServer(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	h.addHost(2, 50, 0, testClientConfig(SchemeCOCA)) // caches nothing
	a.beginRequest(3)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("server requests = %d, want 1", got)
	}
	if h.collector.Aux().PeerTimeouts != 1 {
		t.Errorf("peer timeouts = %d, want 1", h.collector.Aux().PeerTimeouts)
	}
}

func TestCOCAOutOfRangePeerCannotServe(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	far := h.addHost(2, 500, 0, testClientConfig(SchemeCOCA))
	if err := far.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Errorf("server requests = %d, want 1 (peer out of range)", got)
	}
}

func TestPeersDoNotServeExpiredCopies(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second) // let the copy expire
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 0 {
		t.Errorf("global hits = %d, want 0 (copy expired)", got)
	}
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Errorf("server requests = %d, want 1", got)
	}
}

func TestValidationRenewsUnchangedCopy(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	if err := a.Preload(4, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second) // expire
	a.beginRequest(4)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeLocalHit); got != 1 {
		t.Fatalf("outcomes = %v, want one validated local hit", h.collector.outcomes)
	}
	if h.collector.Aux().Validations != 1 {
		t.Errorf("validations = %d, want 1", h.collector.Aux().Validations)
	}
	e := a.Cache().Peek(4)
	if e == nil || !e.Valid(h.k.Now()) {
		t.Error("validated copy not renewed")
	}
}

func TestValidationRefreshesUpdatedCopy(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	if err := a.Preload(4, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	h.mss.Catalog().Update(4) // server copy changes
	h.run(time.Second)
	a.beginRequest(4)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want one server request (refresh)", h.collector.outcomes)
	}
	if h.collector.Aux().Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", h.collector.Aux().Refreshes)
	}
}

func TestAdaptiveTimeoutLearns(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	for i := 0; i < 10; i++ {
		if err := b.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		a.beginRequest(workloadID(i))
		h.run(time.Second)
	}
	if a.tau.Count() != 10 {
		t.Fatalf("tau samples = %d, want 10", a.tau.Count())
	}
	// After enough samples the timeout is mean + ϕ'σ, well under the 1 ms
	// initial default for an uncongested two-node exchange.
	if got := a.searchTimeout(); got <= 0 || got > 10*time.Millisecond {
		t.Errorf("adaptive timeout = %v", got)
	}
}

func TestMultiHopSearch(t *testing.T) {
	h := newHarness(t, 3, false)
	cfg := testClientConfig(SchemeCOCA)
	cfg.HopDist = 2
	// Chain: a(0) - b(80) - c(160); a and c are out of direct range.
	a := h.addHost(1, 0, 0, cfg)
	h.addHost(2, 80, 0, cfg)
	c := h.addHost(3, 160, 0, cfg)
	if err := c.Preload(11, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(11)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("multi-hop global hits = %d (outcomes %v)", got, h.collector.outcomes)
	}
	if a.Cache().Peek(11) == nil {
		t.Error("requester did not cache relayed item")
	}
}

func TestHopDistOneDoesNotFlood(t *testing.T) {
	h := newHarness(t, 3, false)
	cfg := testClientConfig(SchemeCOCA)
	a := h.addHost(1, 0, 0, cfg)
	h.addHost(2, 80, 0, cfg)
	c := h.addHost(3, 160, 0, cfg)
	if err := c.Preload(11, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(11)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Errorf("outcomes = %v, want server request (item 2 hops away)", h.collector.outcomes)
	}
}

// replyCounter stands in for a host on the medium and counts the search
// replies it hears before passing every message on.
type replyCounter struct {
	*Host
	replies int
}

func (r *replyCounter) Receive(msg *network.Message) {
	if msg.Kind == network.KindReply {
		r.replies++
	}
	r.Host.Receive(msg)
}

// TestFloodDedupAnswersOnce has three hosts in range of each other at
// HopDist 2. The relay forwards the origin's search, so the holder hears
// the same flood twice, first from the origin and then from the relay; it
// must answer only the first.
func TestFloodDedupAnswersOnce(t *testing.T) {
	h := newHarness(t, 3, false)
	cfg := testClientConfig(SchemeCOCA)
	cfg.HopDist = 2
	origin := &replyCounter{}
	a := h.addBehind(1, 0, 0, cfg, func(host *Host) network.Peer {
		origin.Host = host
		return origin
	})
	h.addHost(2, 30, 0, cfg) // the relay, registered before the holder
	c := h.addHost(3, 60, 0, cfg)
	if err := c.Preload(11, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(11)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("global hits = %d (outcomes %v)", got, h.collector.outcomes)
	}
	if origin.replies != 1 {
		t.Errorf("origin heard %d replies, want 1: the holder answered the relayed copy too", origin.replies)
	}
}

func TestDisconnectionPausesAndReconnects(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.DiscProb = 1 // always disconnect after a request
	cfg.DiscMin = 5 * time.Second
	cfg.DiscMax = 5 * time.Second
	a := h.addHost(1, 0, 0, cfg)
	a.beginRequest(3)
	h.run(time.Second)
	if h.medium.Connected(a.id) {
		t.Fatal("host still connected after completing with DiscProb=1")
	}
	h.run(10 * time.Second)
	if !h.medium.Connected(a.id) {
		t.Fatal("host did not reconnect")
	}
}
