package client

import (
	"testing"
	"time"

	"repro/internal/network"
)

func TestReversePath(t *testing.T) {
	tests := []struct {
		name    string
		forward []network.NodeID
		origin  network.NodeID
		want    []network.NodeID
	}{
		{"single hop", []network.NodeID{5}, 1, []network.NodeID{1}},
		{"two hops", []network.NodeID{2, 5}, 1, []network.NodeID{2, 1}},
		{"three hops", []network.NodeID{2, 3, 5}, 1, []network.NodeID{3, 2, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := reversePath(tt.forward, tt.origin)
			if len(got) != len(tt.want) {
				t.Fatalf("reversePath = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("reversePath = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestStaleReplyAfterTimeoutIgnored(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	a.beginRequest(3) // nobody caches 3 -> timeout -> server
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	// A forged stale reply for the old request must not disturb the host.
	a.handleReply(network.Message{
		Kind:   network.KindReply,
		From:   2,
		To:     1,
		Size:   network.ReplySize,
		Item:   3,
		Seq:    1,
		Origin: 2,
		TTL:    time.Hour,
	})
	h.run(time.Second)
	if got := h.collector.Requests(); got != 1 {
		t.Errorf("stale reply produced extra completions: %d", got)
	}
}

func TestDuplicateRepliesOnlyFirstRetrieves(t *testing.T) {
	h := newHarness(t, 3, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	c := h.addHost(3, 60, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("global hits = %d, want exactly 1", got)
	}
	// Only one retrieve/data pair should have flowed: count data messages
	// received by a.
	if a.Cache().Peek(9) == nil {
		t.Error("item not cached")
	}
}

func TestRetrieveForEvictedItemRecoversViaServer(t *testing.T) {
	h := newHarness(t, 2, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeCOCA))
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	// Let the reply arrive, then evict 9 from b before the retrieve is
	// served: run just past the reply (sub-millisecond), then evict.
	h.run(200 * time.Microsecond)
	b.Cache().Remove(9)
	h.run(2 * time.Second)
	// The data timeout must have fired and the request fallen back to the
	// MSS.
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want server fallback", h.collector.outcomes)
	}
	if h.collector.Aux().PeerTimeouts == 0 {
		t.Error("no peer timeout recorded")
	}
}

func TestServerReplyForWrongItemIgnored(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	a.beginRequest(7)
	// Inject a reply for a different item before the real one arrives.
	a.handleServerReply(network.Message{
		Kind: network.KindServerReply,
		To:   1,
		Item: 99,
		TTL:  time.Hour,
	})
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	if a.Cache().Peek(99) != nil {
		t.Error("mismatched reply polluted the cache")
	}
	if a.Cache().Peek(7) == nil {
		t.Error("real reply not cached")
	}
}

func TestAdmitRefreshesExistingEntry(t *testing.T) {
	h := newHarness(t, 1, false)
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	if err := a.Preload(5, time.Minute); err != nil {
		t.Fatal(err)
	}
	before := a.Cache().Peek(5)
	oldTTL := before.TTL
	a.admit(5, h.k.Now(), 2*time.Hour, false)
	after := a.Cache().Peek(5)
	if after == nil || after.TTL == oldTTL {
		t.Error("admit did not refresh existing entry's TTL")
	}
	if a.Cache().Len() != 1 {
		t.Errorf("cache len = %d, want 1 (no duplicate)", a.Cache().Len())
	}
}

func TestPreloadIntoFullCacheFails(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.CacheSize = 2
	a := h.addHost(1, 0, 0, cfg)
	if err := a.Preload(1, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := a.Preload(3, time.Hour); err == nil {
		t.Error("Preload into full cache succeeded")
	}
	// Preloading an existing item is a no-op, not an error.
	if err := a.Preload(1, time.Hour); err != nil {
		t.Errorf("re-preload errored: %v", err)
	}
}

func TestSigDeltaAnnihilation(t *testing.T) {
	h := newHarness(t, 1, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	// Insert then evict the same item: the deltas must cancel.
	a.sigInsert(42)
	a.sigRemove(42)
	ins, evi := a.ownSig.Delta()
	if len(ins) != 0 || len(evi) != 0 {
		t.Errorf("deltas not annihilated: +%v -%v", ins, evi)
	}
	// Evict-then-insert likewise (counting filter marks dirty on
	// underflow, triggering a rebuild which clears deltas).
	a.sigInsert(43)
	ins, _ = a.ownSig.Delta()
	if len(ins) == 0 {
		t.Error("insertion delta missing")
	}
}

func TestOwnSigRebuildOnSaturation(t *testing.T) {
	h := newHarness(t, 1, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.SigBits = 64 // tiny filter: collisions guaranteed
	cfg.CacheCounterBits = 1
	cfg.CacheSize = 64
	a := h.addHost(0, 0, 0, cfg)
	for i := 0; i < 40; i++ {
		if err := a.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	// Saturation must have occurred and been repaired: the signature must
	// still cover every cached item (no false negatives).
	sig := a.ownSig.Signature()
	for _, id := range a.Cache().Items() {
		if !sig.Test(uint64(id)) {
			t.Fatalf("own signature lost item %d after saturation", id)
		}
	}
}

func TestRelayedEnvelopeForwarding(t *testing.T) {
	h := newHarness(t, 3, false)
	cfg := testClientConfig(SchemeCOCA)
	cfg.HopDist = 2
	a := h.addHost(1, 0, 0, cfg)
	h.addHost(2, 80, 0, cfg)
	c := h.addHost(3, 160, 0, cfg)
	if err := c.Preload(11, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(11)
	h.run(time.Second)
	// a and c are out of direct range; the data must have been relayed by
	// b and cached at a.
	if a.Cache().Peek(11) == nil {
		t.Fatal("relayed item not cached at origin")
	}
	// The relay b does not cache items it forwards.
	if h.hosts[2].Cache().Peek(11) != nil {
		t.Error("relay cached the forwarded item")
	}
}
