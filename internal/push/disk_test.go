package push

import (
	"slices"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testDisk(t *testing.T, cfg Config, nData int) (*sim.Kernel, *Disk, *server.Catalog, *network.Meter) {
	t.Helper()
	k := sim.NewKernel()
	catalog, err := server.NewCatalog(k, nData, 4096, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	meter := network.NewMeter()
	d, err := NewDisk(k, cfg, catalog, meter)
	if err != nil {
		t.Fatal(err)
	}
	return k, d, catalog, meter
}

func defaultDiskConfig() Config {
	return Config{
		BandwidthKbps:   10000,
		HotItems:        10,
		ReshuffleEvery:  0,
		ListenPerSecond: 50000,
		Power:           network.DefaultPowerModel(),
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero bandwidth", func(c *Config) { c.BandwidthKbps = 0 }},
		{"zero hot items", func(c *Config) { c.HotItems = 0 }},
		{"negative reshuffle", func(c *Config) { c.ReshuffleEvery = -time.Second }},
		{"negative listen", func(c *Config) { c.ListenPerSecond = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := defaultDiskConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := defaultDiskConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewDiskRequiresCatalog(t *testing.T) {
	k := sim.NewKernel()
	if _, err := NewDisk(k, defaultDiskConfig(), nil, nil); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestDiskGeometry(t *testing.T) {
	_, d, _, _ := testDisk(t, defaultDiskConfig(), 100)
	// 4136 bytes at 10,000 kbps = 3.3088 ms per slot, 10 slots per cycle.
	wantSlot := network.TxTime(network.HeaderSize+4096, 10000)
	if d.SlotTime() != wantSlot {
		t.Errorf("SlotTime = %v, want %v", d.SlotTime(), wantSlot)
	}
	if d.CycleTime() != 10*wantSlot {
		t.Errorf("CycleTime = %v, want %v", d.CycleTime(), 10*wantSlot)
	}
	// Hot set clamps to catalog size.
	cfg := defaultDiskConfig()
	cfg.HotItems = 1000
	_, d2, _, _ := testDisk(t, cfg, 50)
	if d2.CycleTime() != 50*wantSlot {
		t.Errorf("clamped cycle = %v, want %v", d2.CycleTime(), 50*wantSlot)
	}
}

func TestTuneDeliversWithinOneCycle(t *testing.T) {
	k, d, _, meter := testDisk(t, defaultDiskConfig(), 100)
	d.Start()
	var gotTTL time.Duration
	var waited time.Duration
	delivered := false
	var gotToken uint64
	d.Tune(7, workload.ItemID(5), 42, func(token uint64, ttl, w time.Duration) {
		delivered = true
		gotToken = token
		gotTTL = ttl
		waited = w
	}, nil)
	if err := k.Run(d.CycleTime() + d.SlotTime()); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("item not delivered within one cycle")
	}
	if gotToken != 42 {
		t.Errorf("token = %d, want the 42 tuned in with", gotToken)
	}
	if waited > d.CycleTime() {
		t.Errorf("waited %v, more than one cycle %v", waited, d.CycleTime())
	}
	if gotTTL != server.InfiniteTTL {
		t.Errorf("TTL = %v, want InfiniteTTL (no updates)", gotTTL)
	}
	if meter.Node(7) == 0 {
		t.Error("waiter charged no energy")
	}
	_, deliveries, _ := d.Stats()
	if deliveries != 1 {
		t.Errorf("deliveries = %d", deliveries)
	}
}

func TestListenEnergyGrowsWithWait(t *testing.T) {
	// Two waiters for the same item tuned at different times: the earlier
	// one pays more listen energy.
	k, d, _, meter := testDisk(t, defaultDiskConfig(), 100)
	d.Start()
	d.Tune(1, workload.ItemID(9), 0, nil, nil)
	k.Schedule(d.SlotTime()*5, func() {
		d.Tune(2, workload.ItemID(9), 0, nil, nil)
	})
	if err := k.Run(d.CycleTime() * 2); err != nil {
		t.Fatal(err)
	}
	if meter.Node(1) <= meter.Node(2) {
		t.Errorf("early waiter paid %v, late waiter %v; want early > late",
			meter.Node(1), meter.Node(2))
	}
}

func TestTuneForOffDiskItemDropsImmediately(t *testing.T) {
	_, d, _, _ := testDisk(t, defaultDiskConfig(), 100) // hot items 0..9
	dropped := false
	d.Tune(1, workload.ItemID(99), 0, nil, func(uint64) { dropped = true })
	if !dropped {
		t.Error("off-disk tune not dropped")
	}
	if d.Contains(99) {
		t.Error("Contains(99) = true")
	}
	if !d.Contains(5) {
		t.Error("Contains(5) = false")
	}
}

func TestReshuffleTracksDemand(t *testing.T) {
	cfg := defaultDiskConfig()
	cfg.HotItems = 3
	cfg.ReshuffleEvery = 100 * time.Millisecond
	k, d, catalog, _ := testDisk(t, cfg, 100)
	d.Start()
	// Demand concentrates on items 50, 60, 70.
	for i := 0; i < 10; i++ {
		catalog.RecordDemand(50)
		catalog.RecordDemand(60)
		catalog.RecordDemand(70)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for _, hot := range []workload.ItemID{50, 60, 70} {
		if !d.Contains(hot) {
			t.Errorf("hot item %d not on disk after reshuffle", hot)
		}
	}
	if d.Contains(0) {
		t.Error("cold item 0 still on disk")
	}
}

func TestReshuffleDropsWaitersOfEvictedItems(t *testing.T) {
	cfg := defaultDiskConfig()
	cfg.HotItems = 2
	cfg.ReshuffleEvery = 50 * time.Millisecond
	k, d, catalog, _ := testDisk(t, cfg, 100)
	// Initial set is {0, 1}. Build demand for {10, 11} so the reshuffle
	// evicts both initial items.
	catalog.RecordDemand(10)
	catalog.RecordDemand(11)
	d.Start()
	dropped := false
	// Tune for item 0 but make its slot unreachable before the reshuffle:
	// slot time is 3.3 ms, so item 0 would normally arrive quickly; tune
	// right before the reshuffle instead.
	k.Schedule(49*time.Millisecond, func() {
		// Item 0 is still on-disk here (reshuffle at 50 ms).
		if !d.Contains(0) {
			t.Error("item 0 missing before reshuffle")
		}
	})
	// Register a waiter for an item that will be evicted, at a time when
	// its slot has just passed so delivery cannot beat the reshuffle.
	k.Schedule(48*time.Millisecond+500*time.Microsecond, func() {
		d.Tune(1, workload.ItemID(0), 0, func(uint64, time.Duration, time.Duration) {
			// Delivery may legitimately win if a slot lands in the 1.5 ms
			// window; treat as inconclusive.
			t.Skip("slot delivered before reshuffle; inconclusive timing")
		}, func(uint64) { dropped = true })
	})
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Error("waiter for evicted item not dropped")
	}
	_, _, drops := d.Stats()
	if drops == 0 {
		t.Error("no drops recorded")
	}
}

func TestStartIdempotent(t *testing.T) {
	k, d, _, _ := testDisk(t, defaultDiskConfig(), 100)
	d.Start()
	d.Start()
	if err := k.Run(d.CycleTime()); err != nil {
		t.Fatal(err)
	}
	broadcasts, _, _ := d.Stats()
	// One slot loop: ~10 broadcasts in one cycle, not ~20.
	if broadcasts > 12 {
		t.Errorf("broadcasts = %d, want ~10 (single loop)", broadcasts)
	}
}

func TestReshuffleKeepsWaitersOfSurvivingItems(t *testing.T) {
	cfg := defaultDiskConfig()
	cfg.HotItems = 2
	cfg.ReshuffleEvery = 50 * time.Millisecond
	k, d, catalog, _ := testDisk(t, cfg, 100)
	// Demand keeps item 0 hot (it is in the initial set and most
	// demanded), so a waiter for it survives the reshuffle and is served.
	for i := 0; i < 5; i++ {
		catalog.RecordDemand(0)
		catalog.RecordDemand(30)
	}
	d.Start()
	delivered := false
	d.Tune(1, workload.ItemID(0), 0, func(uint64, time.Duration, time.Duration) { delivered = true }, nil)
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Error("waiter for surviving item not delivered")
	}
	if !d.Contains(0) || !d.Contains(30) {
		t.Error("demanded items not on disk after reshuffle")
	}
}

func TestOutageSlotsDoNotDeliver(t *testing.T) {
	// An MSS outage window covering several broadcast cycles: slots inside
	// the window must not deliver, and the waiter is served by the first
	// intact slot after it ends.
	k, d, _, _ := testDisk(t, defaultDiskConfig(), 100)
	plan, err := network.NewFaultPlan(network.FaultPlanConfig{
		OutagePeriod:   100 * time.Millisecond,
		OutageDuration: 60 * time.Millisecond,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultPlan(plan)
	d.Start()
	var deliveredAt time.Duration
	delivered := false
	// Tune just before the outage window [100ms, 160ms) for an item whose
	// slot will only come up inside it (cycle ≈ 33 ms covers all 10 items,
	// so every item recurs during the 60 ms outage).
	k.Schedule(99*time.Millisecond, func() {
		d.Tune(1, workload.ItemID(3), 0, func(uint64, time.Duration, time.Duration) {
			delivered = true
			deliveredAt = k.Now()
		}, nil)
	})
	if err := k.Run(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !delivered {
		t.Fatal("waiter never served after outage")
	}
	if deliveredAt < 160*time.Millisecond {
		t.Errorf("delivered at %v, inside outage window [100ms, 160ms)", deliveredAt)
	}
	if d.OutageSlots() == 0 {
		t.Error("no outage slots recorded across the window")
	}
	broadcasts, deliveries, _ := d.Stats()
	if deliveries != 1 {
		t.Errorf("deliveries = %d, want 1", deliveries)
	}
	if d.OutageSlots() >= broadcasts {
		t.Errorf("outage slots %d not a strict subset of %d broadcasts", d.OutageSlots(), broadcasts)
	}
}

func TestDiskSlotAdvancesThroughWholeCycle(t *testing.T) {
	k, d, _, _ := testDisk(t, defaultDiskConfig(), 100) // items 0..9
	d.Start()
	// Tune for every scheduled item; all must be served within one cycle
	// plus a slot.
	served := 0
	for i := 0; i < 10; i++ {
		d.Tune(network.NodeID(i), workload.ItemID(i), 0, func(uint64, time.Duration, time.Duration) { served++ }, nil)
	}
	if err := k.Run(d.CycleTime() + 2*d.SlotTime()); err != nil {
		t.Fatal(err)
	}
	if served != 10 {
		t.Errorf("served = %d, want all 10 scheduled items", served)
	}
}

// TestReshuffleDropsInItemOrder has one reshuffle drop three awaited
// items, tuned for out of order and with two waiters on two of them: the
// drop callbacks must fire in ascending item order, each item's waiters in
// tune order, on every run, whatever order the waiter map visits.
func TestReshuffleDropsInItemOrder(t *testing.T) {
	cfg := defaultDiskConfig()
	cfg.HotItems = 3
	for run := 0; run < 50; run++ {
		_, d, catalog, _ := testDisk(t, cfg, 100)
		for item := workload.ItemID(10); item < 13; item++ {
			catalog.RecordDemand(item)
		}
		var got []uint64
		record := func(token uint64) { got = append(got, token) }
		// Tokens are 10·item + the waiter's rank on its item.
		for _, tune := range []struct {
			item  workload.ItemID
			token uint64
		}{{2, 20}, {0, 0}, {1, 10}, {2, 21}, {0, 1}} {
			d.Tune(1, tune.item, tune.token, nil, record)
		}
		d.setItems(catalog.TopDemand(cfg.HotItems))
		if want := []uint64{0, 1, 10, 20, 21}; !slices.Equal(got, want) {
			t.Fatalf("run %d: drops fired for tokens %v, want %v", run, got, want)
		}
	}
}
