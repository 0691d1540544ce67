package client

import (
	"testing"
	"time"

	"repro/internal/ndp"
	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/server"
	"repro/internal/sim"
)

// TestRequestPathAllocs pins a request's whole life at zero allocations
// once the host, its cache and the kernel have warmed up: a local hit,
// an SC round trip to the MSS whose admission evicts, and a COCA
// single-hop peer hit whose admission evicts. It pins GroCoca's two
// piggybacks too: a search broadcast and a hello that each carry a
// signature delta to a host that has the sender in its TCG.
func TestRequestPathAllocs(t *testing.T) {
	t.Run("local hit", func(t *testing.T) {
		h := newHarness(t, 1, false)
		a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
		if err := a.Preload(1, time.Hour); err != nil {
			t.Fatal(err)
		}
		hit := func() { a.beginRequest(1) }
		hit()
		if avg := testing.AllocsPerRun(200, hit); avg != 0 {
			t.Errorf("a local hit allocates %.1f times, want 0", avg)
		}
		if got := h.collector.OutcomeCount(OutcomeLocalHit); got != 202 {
			t.Errorf("local hits = %d, want 202", got)
		}
	})

	t.Run("SC round trip", func(t *testing.T) {
		h := newHarness(t, 1, false)
		cfg := testClientConfig(SchemeSC)
		cfg.CacheSize = 2
		a := h.addHost(1, 0, 0, cfg)
		item := 0
		miss := func() {
			// Ten items cycled through two slots always miss and evict.
			a.beginRequest(workloadID(item % 10))
			item++
			h.run(time.Second)
		}
		for range 20 {
			miss()
		}
		if avg := testing.AllocsPerRun(200, miss); avg != 0 {
			t.Errorf("an SC round trip allocates %.1f times, want 0", avg)
		}
		if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 221 || a.Cache().Len() != 2 {
			t.Errorf("server requests = %d with %d cached, want 221 with 2", got, a.Cache().Len())
		}
	})

	t.Run("COCA peer hit", func(t *testing.T) {
		h := newHarness(t, 2, false)
		cfg := testClientConfig(SchemeCOCA)
		cfg.CacheSize = 2
		a := h.addHost(1, 0, 0, cfg)
		b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
		for i := range 10 {
			if err := b.Preload(workloadID(i), time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		item := 0
		hit := func() {
			a.beginRequest(workloadID(item % 10))
			item++
			h.run(time.Second)
		}
		for range 20 {
			hit()
		}
		if avg := testing.AllocsPerRun(200, hit); avg != 0 {
			t.Errorf("a COCA peer hit allocates %.1f times, want 0", avg)
		}
		if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 221 || a.Cache().Len() != 2 {
			t.Errorf("global hits = %d with %d cached, want 221 with 2", got, a.Cache().Len())
		}
	})

	t.Run("GroCoca search with a delta", func(t *testing.T) {
		h := newHarness(t, 2, false)
		cfg := testClientConfig(SchemeGroCoca)
		cfg.CacheSize = 2
		a := h.addHost(1, 0, 0, cfg)
		heard := &deltaCounter{}
		b := h.addBehind(2, 50, 0, cfg, heard.wrap)
		// b tracks a's signature; a has no member, so it never filters
		// its searches.
		b.applyMembershipChanges([]server.MembershipChange{{Peer: a.id, Joined: true}})
		h.run(time.Second)
		item := 0
		miss := func() {
			// Each request misses, searches b in vain and admits from the
			// MSS with an eviction, so the next search carries a delta.
			a.beginRequest(workloadID(item % 10))
			item++
			h.run(time.Second)
		}
		for range 20 {
			miss()
		}
		before := heard.searchDeltas
		if avg := testing.AllocsPerRun(200, miss); avg != 0 {
			t.Errorf("a GroCoca search with a delta allocates %.1f times, want 0", avg)
		}
		if got := heard.searchDeltas - before; got != 201 {
			t.Errorf("b heard %d searches with a delta, want 201", got)
		}
		// One more search announces the last admission.
		a.beginRequest(workloadID(item % 10))
		announced := a.ownSig.Signature()
		h.run(time.Second)
		if !b.haveSig[a.id].Equal(announced) {
			t.Error("b's copy of a's signature differs from the one a announced")
		}
	})

	t.Run("GroCoca hello with a delta", func(t *testing.T) {
		h := newHarness(t, 2, false)
		cfg := testClientConfig(SchemeGroCoca)
		cfg.CacheSize = 2
		a := h.addHost(1, 0, 0, cfg)
		heard := &deltaCounter{}
		b := h.addBehind(2, 50, 0, cfg, heard.wrap)
		join(a, b) // a host with no member drops its delta
		h.run(time.Second)
		a.ndp.Start() // a says hello now and every ndp.Interval after
		item := 0
		replace := func() {
			a.admit(workloadID(item%10), h.k.Now(), time.Hour, false)
			item++
			h.run(ndp.Interval)
		}
		for range 20 {
			replace()
		}
		before := heard.helloDeltas
		if avg := testing.AllocsPerRun(200, replace); avg != 0 {
			t.Errorf("a GroCoca hello with a delta allocates %.1f times, want 0", avg)
		}
		if got := heard.helloDeltas - before; got != 201 {
			t.Errorf("b heard %d hellos with a delta, want 201", got)
		}
		h.run(ndp.Interval) // the last hello arrives
		if !b.haveSig[a.id].Equal(a.ownSig.Signature()) {
			t.Error("b's copy of a's signature differs from a's own after folding its deltas")
		}
	})
}

// deltaCounter stands in for a host on the medium and counts the
// signature deltas it hears on search broadcasts and on hellos before
// passing every message on.
type deltaCounter struct {
	*Host
	searchDeltas, helloDeltas int
}

// wrap makes c stand in for host.
func (c *deltaCounter) wrap(host *Host) network.Peer {
	c.Host = host
	return c
}

func (c *deltaCounter) Receive(msg *network.Message) {
	switch x := msg.Extra.(type) {
	case *sigDelta:
		if msg.Kind == network.KindRequest && len(x.insert)+len(x.evict) > 0 {
			c.searchDeltas++
		}
	case *beaconInfo:
		if d := x.SigDelta; msg.Kind == network.KindBeacon && d != nil && len(d.insert)+len(d.evict) > 0 {
			c.helloDeltas++
		}
	}
	c.Host.Receive(msg)
}

// TestStaleBroadcastDeliveryAfterCrash aborts a request with a crash while
// it waits on a push tune-in. The host reuses its request record, so the
// disk's stale delivery must be recognised by the request's seq and must
// not complete the host's next request, which waits on a later slot.
func TestStaleBroadcastDeliveryAfterCrash(t *testing.T) {
	h := newHarness(t, 1, false)
	plan, err := network.NewFaultPlan(network.FaultPlanConfig{
		CrashMTBF:    24 * time.Hour, // no spontaneous crashes within the test
		CrashDownMin: 2 * time.Second,
		CrashDownMax: 5 * time.Second,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testClientConfig(SchemeSC)
	cfg.Delivery = DeliveryHybrid
	a := h.addHost(1, 0, 0, cfg)
	a.SetFaultPlan(plan)
	disk, err := push.NewDisk(h.k, push.Config{
		BandwidthKbps: 10000,
		HotItems:      50,
	}, h.mss.Catalog(), h.meter)
	if err != nil {
		t.Fatal(err)
	}
	a.SetBroadcastDisk(disk)
	disk.Start()
	// The disk broadcasts items 0..49 in order, item k at (k+1) slots.
	slot := disk.SlotTime()
	a.beginRequest(10)
	h.run(slot / 2)
	a.crash()
	a.recoverFromCrash()
	a.beginRequest(40)
	// Past item 10's slot, before item 40's: the stale waiter has fired.
	h.run(25 * slot)
	if !a.Outstanding() {
		t.Fatal("the stale delivery for the aborted request completed the next one")
	}
	if got := h.collector.Aux().BroadcastDeliveries; got != 0 {
		t.Errorf("broadcast deliveries = %d before item 40's slot, want 0", got)
	}
	h.run(20 * slot)
	if a.Outstanding() || h.collector.Aux().BroadcastDeliveries != 1 {
		t.Errorf("outstanding=%v deliveries=%d after item 40's slot, want the request served once",
			a.Outstanding(), h.collector.Aux().BroadcastDeliveries)
	}
	if a.Cache().Peek(10) != nil || a.Cache().Peek(40) == nil {
		t.Error("the cache holds the aborted request's item, or lacks the served one")
	}
}
