package client

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/sim"
)

// TestRequestPathAllocs pins a request's whole life at zero allocations
// once the host, its cache and the kernel have warmed up: a local hit,
// an SC round trip to the MSS whose admission evicts, and a COCA
// single-hop peer hit whose admission evicts.
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
		BandwidthKbps:   10000,
		HotItems:        50,
		ListenPerSecond: 50000,
		Power:           network.DefaultPowerModel(),
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
