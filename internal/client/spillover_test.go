package client

import (
	"testing"
	"time"

	"repro/internal/network"
)

func spilloverConfig() Config {
	cfg := testClientConfig(SchemeCOCA)
	cfg.EnableSpillover = true
	cfg.SpilloverActivityRatio = 0.5
	return cfg
}

func TestSpilloverConfigValidation(t *testing.T) {
	cfg := spilloverConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid spillover config rejected: %v", err)
	}
	cfg.Scheme = SchemeSC
	if err := cfg.Validate(); err == nil {
		t.Error("spillover with SC accepted")
	}
	cfg = spilloverConfig()
	cfg.SpilloverActivityRatio = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero activity ratio accepted")
	}
	cfg = spilloverConfig()
	cfg.SpilloverActivityRatio = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("ratio above 1 accepted")
	}
}

func TestActivityEstimateTracksRate(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, spilloverConfig())
	if a.activityPerSec() != 0 {
		t.Error("fresh host has activity")
	}
	// Requests 100 ms apart → ~10/s.
	for i := 0; i < 20; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	got := a.activityPerSec()
	if got < 8 || got > 12 {
		t.Errorf("activity = %v/s, want ~10", got)
	}
}

func TestHandleSpillAcceptsAndRejects(t *testing.T) {
	h := newHarness(t, 2, false)
	cfg := spilloverConfig()
	cfg.CacheSize = 2
	a := h.addHost(1, 0, 0, cfg)
	spill := func(item int, expiresAt time.Duration) {
		a.handleSpill(network.Message{Kind: network.KindSpill, Item: workloadID(item), TTL: expiresAt})
	}
	spill(5, time.Hour)
	if a.Cache().Peek(5) == nil {
		t.Fatal("spill with space rejected")
	}
	if h.collector.Aux().SpillsAccepted != 1 {
		t.Errorf("spills accepted = %d", h.collector.Aux().SpillsAccepted)
	}
	// Duplicate: ignored.
	spill(5, time.Hour)
	// Expired: ignored.
	spill(6, 0)
	if a.Cache().Peek(6) != nil {
		t.Error("expired spill accepted")
	}
	// Fill, then overflow: the donation replaces the LRU entry (item 5,
	// donated first) rather than being dropped.
	spill(7, time.Hour)
	spill(8, time.Hour)
	if a.Cache().Peek(8) == nil {
		t.Error("donation into full cache did not roll the window")
	}
	if a.Cache().Peek(5) != nil {
		t.Error("oldest donation not replaced")
	}
	if a.Cache().Len() != 2 {
		t.Errorf("cache len = %d, want 2", a.Cache().Len())
	}
	if h.collector.Aux().SpillsAccepted != 3 {
		t.Errorf("spills accepted = %d, want 3", h.collector.Aux().SpillsAccepted)
	}
}

func TestSpillTargetPrefersIdleNeighborsWithSpace(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, spilloverConfig())
	// The host is active (~10 req/s).
	for i := 0; i < 10; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	now := h.k.Now()
	a.recordNeighborBeacon(2, beaconInfo{ActivityPerSec: 1, HasSpace: true})
	a.recordNeighborBeacon(3, beaconInfo{ActivityPerSec: 0.2, HasSpace: true})
	a.recordNeighborBeacon(4, beaconInfo{ActivityPerSec: 0.1, HasSpace: false})
	a.recordNeighborBeacon(5, beaconInfo{ActivityPerSec: 9, HasSpace: true}) // too active
	_ = now
	// Least active wins even without spare space (donations roll the LRU).
	target, ok := a.spillTarget()
	if !ok || target != 4 {
		t.Errorf("spill target = %d (%v), want 4 (least active)", target, ok)
	}
}

func TestSpillTargetIgnoresStaleBeacons(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, spilloverConfig())
	for i := 0; i < 10; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	a.recordNeighborBeacon(2, beaconInfo{ActivityPerSec: 0.1, HasSpace: true})
	// Advance far beyond the staleness window (3 beacon intervals).
	h.run(time.Minute)
	if _, ok := a.spillTarget(); ok {
		t.Error("stale beacon entry used as spill target")
	}
}

func TestSpilloverEndToEnd(t *testing.T) {
	h := newHarness(t, 2, false)
	active := spilloverConfig()
	active.CacheSize = 2
	idle := spilloverConfig()
	idle.CacheSize = 10
	a := h.addHost(1, 0, 0, active)
	b := h.addHost(2, 50, 0, idle)
	a.Start()
	b.Start()
	// Make a active and b idle in a's beacon table (real beacons flow, but
	// b never requests so its announced activity stays 0).
	for i := 0; i < 10; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	h.run(3 * time.Second) // beacons exchange activity/space state
	// Fill a's cache, then admit one more: the evicted item spills to b.
	if err := a.Preload(100, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(101, time.Hour); err != nil {
		t.Fatal(err)
	}
	// Item 100 proves useful (two hits) but ends least recently used, so
	// it is the eviction victim and qualifies for donation.
	a.Cache().Get(100, h.k.Now())
	a.Cache().Get(100, h.k.Now())
	a.Cache().Get(101, h.k.Now())
	a.admit(102, h.k.Now(), time.Hour, false)
	h.run(time.Second)
	if h.collector.Aux().SpillsSent != 1 {
		t.Fatalf("spills sent = %d, want 1", h.collector.Aux().SpillsSent)
	}
	if b.Cache().Peek(100) == nil {
		t.Error("evicted item 100 not spilled to idle neighbor")
	}
	// The spilled copy now serves a's re-request as a global hit.
	a.beginRequest(100)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Errorf("outcomes = %v, want global hit from spilled copy", h.collector.outcomes)
	}
}

// TestAdmitSpillsTheRemovedVictim pins the cache-entry lifetime admit
// relies on: the victim is offered for spillover after its Remove, and
// the offer must carry the victim's own item and expiry, not those of
// the entry admitted into its slot.
func TestAdmitSpillsTheRemovedVictim(t *testing.T) {
	h := newHarness(t, 2, false)
	active := spilloverConfig()
	active.CacheSize = 2
	a := h.addHost(1, 0, 0, active)
	b := h.addHost(2, 50, 0, spilloverConfig())
	for i := 0; i < 10; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	a.recordNeighborBeacon(2, beaconInfo{ActivityPerSec: 0.1, HasSpace: true})
	if err := a.Preload(100, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(101, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.Cache().Get(100, 0)
	a.Cache().Get(100, 0)
	a.Cache().Get(101, 0)
	h.run(time.Second)
	a.admit(102, h.k.Now(), 2*time.Hour, false)
	h.run(time.Second)
	e := b.Cache().Peek(100)
	if e == nil || !e.Donated {
		t.Fatalf("victim 100 not donated to b: %+v", e)
	}
	if got := e.RetrievedAt + e.TTL; got != 30*time.Minute {
		t.Errorf("donated copy expires at %v, want the victim's 30m0s", got)
	}
	if b.Cache().Peek(102) != nil || a.Cache().Peek(102) == nil {
		t.Error("the admitted item, not the victim, was offered")
	}
}

// TestSpillTargetBreaksTiesByLowestID gives eight neighbors the same
// activity and space flag: every call must pick the lowest ID, whatever
// order the beacons arrived in.
func TestSpillTargetBreaksTiesByLowestID(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, spilloverConfig())
	for i := 0; i < 10; i++ {
		a.observeActivity(time.Duration(i) * 100 * time.Millisecond)
	}
	for _, id := range []network.NodeID{9, 4, 7, 3, 8, 5, 6, 2} {
		a.recordNeighborBeacon(id, beaconInfo{ActivityPerSec: 0.1, HasSpace: true})
	}
	a.recordNeighborBeacon(10, beaconInfo{ActivityPerSec: 0.1, HasSpace: false})
	for i := 0; i < 200; i++ {
		if target, ok := a.spillTarget(); !ok || target != 2 {
			t.Fatalf("call %d: spill target = %d (%v), want 2, the lowest tied ID", i, target, ok)
		}
	}
}
