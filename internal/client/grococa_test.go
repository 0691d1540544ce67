package client

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/server"
)

// join injects a symmetric TCG membership between two hosts, as the MSS
// would announce it.
func join(a, b *Host) {
	a.applyMembershipChanges([]server.MembershipChange{{Peer: b.id, Joined: true}})
	b.applyMembershipChanges([]server.MembershipChange{{Peer: a.id, Joined: true}})
}

func leave(a, b *Host) {
	a.applyMembershipChanges([]server.MembershipChange{{Peer: b.id, Joined: false}})
	b.applyMembershipChanges([]server.MembershipChange{{Peer: a.id, Joined: false}})
}

func TestGroCocaSearchesLikeCOCAWithoutSignatures(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	b := h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	// No TCG membership means no signature information: the filter cannot
	// decide, so the host falls back to the base COCA search and finds the
	// neighbor's copy.
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want global hit via COCA fallback", h.collector.outcomes)
	}
	if h.collector.Aux().FilterBypasses != 0 {
		t.Errorf("filter bypasses = %d, want 0", h.collector.Aux().FilterBypasses)
	}
}

func TestGroCocaSignatureExchangeEnablesPeerSearch(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	b := h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second) // sig request/reply round trip
	if a.peerVec.Members() != 1 {
		t.Fatalf("peer vector members = %d, want 1", a.peerVec.Members())
	}
	if h.collector.Aux().SigExchanges == 0 {
		t.Error("no signature exchanges recorded")
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want global hit after signature exchange", h.collector.outcomes)
	}
}

func TestGroCocaFilterBypassesForUncachedItem(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	b := h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second)
	// Item 777 is not in b's cache; with a sparse 10,000-bit signature the
	// filter almost surely rejects it and no broadcast happens.
	before, _, _, _ := h.medium.Stats()
	a.beginRequest(777)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	if h.collector.Aux().FilterBypasses != 1 {
		// A bloom false positive is possible but wildly unlikely here.
		t.Errorf("filter bypasses = %d, want 1", h.collector.Aux().FilterBypasses)
	}
	after, _, _, _ := h.medium.Stats()
	// Only beacons may have been transmitted in between.
	if after-before > 10 {
		t.Errorf("P2P messages during bypass = %d, want only beacons", after-before)
	}
}

func TestGroCocaDisableFilterSearchesAnyway(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.DisableFilter = true
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	// No TCG, but filtering is disabled: plain COCA search finds the peer
	// copy.
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want global hit with filter disabled", h.collector.outcomes)
	}
}

func TestGroCocaAdmissionControlSkipsTCGSuppliedItems(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.CacheSize = 3
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	// Fill a's cache and seed b's copy before the membership forms, so the
	// join-time signature exchange covers item 9.
	for i := 100; i < 103; i++ {
		if err := a.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second) // signature exchange settles
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want global hit", h.collector.outcomes)
	}
	if a.Cache().Peek(9) != nil {
		t.Error("item from TCG member cached despite full cache")
	}
	if h.collector.Aux().AdmissionSkips != 1 {
		t.Errorf("admission skips = %d, want 1", h.collector.Aux().AdmissionSkips)
	}
}

func TestGroCocaAdmitsFromNonTCGPeerWithEviction(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.CacheSize = 3
	cfg.DisableFilter = true // allow search without membership
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	for i := 100; i < 103; i++ {
		if err := a.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	if a.Cache().Peek(9) == nil {
		t.Error("item from non-TCG peer not cached")
	}
	if a.Cache().Len() != 3 {
		t.Errorf("cache len = %d, want 3 (evicted one)", a.Cache().Len())
	}
}

func TestGroCocaProviderTouchesServedItem(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	// b caches 9 (oldest) then 10 before the membership forms; serving 9
	// to a TCG member should refresh 9's recency above 10's.
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.run(100 * time.Millisecond)
	if err := b.Preload(10, time.Hour); err != nil {
		t.Fatal(err)
	}
	if v := b.Cache().Victim(); v.ID != 9 {
		t.Fatalf("precondition: victim = %d, want 9", v.ID)
	}
	join(a, b)
	h.run(time.Second)
	a.beginRequest(9)
	h.run(time.Second)
	if v := b.Cache().Victim(); v.ID != 10 {
		t.Errorf("victim after serving = %d, want 10 (9 touched)", v.ID)
	}
}

func TestGroCocaCooperativeReplacementPrefersReplicatedVictim(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.CacheSize = 3
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	join(a, b)
	// a caches 100 (LRU victim), 101, 102; b caches 101 — so 101 is
	// replicated in the TCG and should be evicted before 100.
	for i := 100; i < 103; i++ {
		if err := a.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Preload(101, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second) // signature exchange
	if a.peerVec.Members() != 1 {
		t.Fatalf("peer vector members = %d", a.peerVec.Members())
	}
	// Admit a new item from the server path.
	a.beginRequest(500)
	h.run(time.Second)
	if a.Cache().Peek(101) != nil {
		t.Error("replicated item 101 not evicted")
	}
	if a.Cache().Peek(100) == nil {
		t.Error("singlet 100 evicted despite replica-aware replacement")
	}
	if h.collector.Aux().CoopEvictions != 1 {
		t.Errorf("coop evictions = %d, want 1", h.collector.Aux().CoopEvictions)
	}
}

func TestGroCocaSingletTTLDropsStaleSinglet(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.CacheSize = 4
	cfg.ReplaceDelay = 2
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	join(a, b)
	// a: 100 is the singlet LRU victim; 101, 102, 103 all replicated at b.
	for i := 100; i < 104; i++ {
		if err := a.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := 101; i < 104; i++ {
		if err := b.Preload(workloadID(i), time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	h.run(time.Second)
	// First admission: replicated 101 evicted, singlet 100 spared
	// (SingletTTL 2 -> 1).
	a.beginRequest(500)
	h.run(time.Second)
	if a.Cache().Peek(100) == nil {
		t.Fatal("singlet dropped too early")
	}
	// Second admission: 102 would be evicted, but the singlet's counter
	// hits zero and 100 is dropped instead.
	a.beginRequest(501)
	h.run(time.Second)
	if a.Cache().Peek(100) != nil {
		t.Error("stale singlet 100 still cached after ReplaceDelay rounds")
	}
	if h.collector.Aux().SingletDrops != 1 {
		t.Errorf("singlet drops = %d, want 1", h.collector.Aux().SingletDrops)
	}
}

func TestGroCocaDepartureResetsAndRecollects(t *testing.T) {
	h := newHarness(t, 3, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	c := h.addHost(2, 60, 0, cfg)
	join(a, b)
	join(a, c)
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(10, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	if a.peerVec.Members() != 2 {
		t.Fatalf("members = %d, want 2", a.peerVec.Members())
	}
	// c departs a's TCG: the vector resets and recollects only b.
	leave(a, c)
	h.run(time.Second)
	if a.peerVec.Members() != 1 {
		t.Fatalf("members after departure = %d, want 1", a.peerVec.Members())
	}
	if !a.peerVec.CoversElement(9) {
		t.Error("b's item no longer covered after recollection")
	}
	if a.peerVec.CoversElement(10) {
		t.Log("departed member's item still covered (possible false positive)")
	}
}

func TestGroCocaPiggybackedDeltaUpdatesPeerVector(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	// b caches 9 before the membership forms so a's join-time exchange
	// covers it and a's search for 9 is not bypassed.
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second)
	// a caches a fresh item; its next broadcast carries the delta, which b
	// applies.
	if err := a.Preload(42, time.Hour); err != nil {
		t.Fatal(err)
	}
	if b.peerVec.CoversElement(42) {
		t.Fatal("b already covers 42 before any broadcast")
	}
	a.beginRequest(9)
	h.run(time.Second)
	if !b.peerVec.CoversElement(42) {
		t.Error("b did not apply piggybacked insertion delta")
	}
}

func TestGroCocaReconnectRecollectsSignatures(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	join(a, b)
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	h.run(time.Second)
	if a.peerVec.Members() != 1 {
		t.Fatal("precondition: signature collected")
	}
	// a disconnects and reconnects; the handling protocol rebuilds the
	// vector.
	a.setConnected(false)
	h.run(5 * time.Second)
	a.reconnect()
	h.run(2 * time.Second)
	if a.peerVec.Members() != 1 {
		t.Errorf("members after reconnect = %d, want 1 (recollected)", a.peerVec.Members())
	}
	if !a.peerVec.CoversElement(9) {
		t.Error("recollected vector does not cover b's item")
	}
}

func TestGroCocaOutstandSigListRetriesOnNeighborUp(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	a.Start()
	b.Start()
	// b is disconnected when the membership arrives: the direct SigRequest
	// is lost and b stays on the OutstandSigList.
	b.setConnected(false)
	join(a, b)
	h.run(3 * time.Second)
	if a.peerVec.Members() != 0 {
		t.Fatal("signature collected from disconnected member")
	}
	if _, ok := a.outstandSig[b.id]; !ok {
		t.Fatal("b not on OutstandSigList")
	}
	// b reconnects; NDP hears its beacon and a retries the SigRequest.
	b.setConnected(true)
	h.run(5 * time.Second)
	if a.peerVec.Members() != 1 {
		t.Errorf("members after neighbor-up retry = %d, want 1", a.peerVec.Members())
	}
	if _, ok := a.outstandSig[b.id]; ok {
		t.Error("b still on OutstandSigList after reply")
	}
}

// TestGroCocaSigReplyHandsOverFilter: the receiver of a SigReply stores the
// reply's filter without copying it, so the sender's counting filter and
// the receiver's stored signature must still change independently.
func TestGroCocaSigReplyHandsOverFilter(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	b := h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second) // sig request/reply round trip
	stored, ok := a.haveSig[b.id]
	if !ok {
		t.Fatal("a stored no signature for b after the exchange")
	}
	sent := b.ownSig.Signature()
	if !stored.Equal(sent) {
		t.Fatal("stored signature differs from the sender's")
	}

	// A delta applied to a's stored copy leaves b's signature alone.
	set, unset := -1, -1
	for p := 0; p < stored.M(); p++ {
		switch {
		case stored.Bit(p) && set < 0:
			set = p
		case !stored.Bit(p) && unset < 0:
			unset = p
		}
	}
	if set < 0 || unset < 0 {
		t.Fatal("signature has no set or no unset bit to flip")
	}
	a.applySigDelta(b.id, []int{unset}, []int{set})
	if !stored.Bit(unset) || stored.Bit(set) {
		t.Fatal("delta not applied to the stored signature")
	}
	if !b.ownSig.Signature().Equal(sent) {
		t.Error("a delta applied to the receiver's stored copy changed the sender's signature")
	}

	// And a change to b's cache leaves a's stored copy alone.
	before := stored.Clone()
	b.sigInsert(77)
	b.sigRemove(9)
	if b.ownSig.Signature().Equal(sent) {
		t.Fatal("sender's signature did not change")
	}
	if !a.haveSig[b.id].Equal(before) {
		t.Error("a change to the sender's cache changed the receiver's stored copy")
	}
}

func TestGroCocaSigReplySizesCompression(t *testing.T) {
	h := newHarness(t, 2, true)
	cfgCompressed := testClientConfig(SchemeGroCoca)
	cfgRaw := testClientConfig(SchemeGroCoca)
	cfgRaw.DisableCompression = true

	a := h.addHost(0, 0, 0, cfgCompressed)
	b := h.addHost(1, 50, 0, cfgCompressed)
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	h.run(time.Second)
	compressedBytes := h.collector.Aux().SigBytes
	if compressedBytes == 0 {
		t.Fatal("no signature bytes recorded")
	}
	// Raw transfer of a 10,000-bit signature is 1250 bytes + header; the
	// compressed sparse signature must be well below that.
	if compressedBytes >= 1250 {
		t.Errorf("compressed signature bytes = %d, want < 1250", compressedBytes)
	}
	_ = a
	_ = cfgRaw

	// A raw pair for comparison.
	h2 := newHarness(t, 2, true)
	c := h2.addHost(0, 0, 0, cfgRaw)
	d := h2.addHost(1, 50, 0, cfgRaw)
	if err := d.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(c, d)
	h2.run(time.Second)
	rawBytes := h2.collector.Aux().SigBytes
	if rawBytes < 1250 {
		t.Errorf("raw signature bytes = %d, want >= 1250", rawBytes)
	}
	if compressedBytes >= rawBytes {
		t.Errorf("compression did not shrink transfer: %d vs %d", compressedBytes, rawBytes)
	}
}

func TestGroCocaBroadcastSigRequestIgnoredByNonMembers(t *testing.T) {
	h := newHarness(t, 3, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	c := h.addHost(2, 60, 0, cfg)
	join(a, b)
	join(a, c)
	h.run(time.Second)
	// Force a recollection naming only b.
	leave(a, c)
	h.run(time.Second)
	// c must not have contributed a signature to a's vector.
	if a.peerVec.Members() != 1 {
		t.Errorf("members = %d, want 1 (only b listed)", a.peerVec.Members())
	}
	_ = c
}

func TestGroCocaPeerRequestFromNonMemberIgnoresDelta(t *testing.T) {
	h := newHarness(t, 2, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.DisableFilter = true
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	// No membership: a's broadcast carries a delta but b must ignore it.
	if err := a.Preload(42, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(777)
	h.run(time.Second)
	if b.peerVec.CoversElement(42) {
		t.Error("non-member applied piggybacked delta")
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeSC.String() != "SC" || SchemeCOCA.String() != "COCA" || SchemeGroCoca.String() != "GroCoca" {
		t.Error("scheme names wrong")
	}
	if Scheme(99).String() != "unknown" {
		t.Error("unknown scheme name wrong")
	}
	if OutcomeLocalHit.String() != "local-hit" || Outcome(99).String() != "unknown" {
		t.Error("outcome names wrong")
	}
}

func TestHostTCGSizeTracksMembership(t *testing.T) {
	h := newHarness(t, 2, true)
	a := h.addHost(0, 0, 0, testClientConfig(SchemeGroCoca))
	b := h.addHost(1, 50, 0, testClientConfig(SchemeGroCoca))
	if a.TCGSize() != 0 {
		t.Error("fresh host has TCG members")
	}
	join(a, b)
	if a.TCGSize() != 1 || b.TCGSize() != 1 {
		t.Error("join not reflected")
	}
	leave(a, b)
	if a.TCGSize() != 0 {
		t.Error("leave not reflected")
	}
	h.run(time.Millisecond)
}

var _ = network.BroadcastID // keep import if helpers change

func TestGroCocaTouchesLongestTTLHolder(t *testing.T) {
	h := newHarness(t, 3, true)
	cfg := testClientConfig(SchemeGroCoca)
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	c := h.addHost(2, 60, 0, cfg)
	// Both b and c cache item 9 (c with the longer TTL) plus a second item
	// so LRU order is observable; then the TCGs form.
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(9, 10*time.Hour); err != nil {
		t.Fatal(err)
	}
	h.run(100 * time.Millisecond)
	if err := b.Preload(20, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(21, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	join(a, c)
	h.run(time.Second)
	// Preconditions: in both caches, item 9 is the LRU victim.
	if v := b.Cache().Victim(); v.ID != 9 {
		t.Fatalf("b victim = %d, want 9", v.ID)
	}
	if v := c.Cache().Victim(); v.ID != 9 {
		t.Fatalf("c victim = %d, want 9", v.ID)
	}
	a.beginRequest(9)
	h.run(time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v", h.collector.outcomes)
	}
	// The longest-TTL holder (c) must have been touched; b must not.
	if v := c.Cache().Victim(); v.ID == 9 {
		t.Error("longest-TTL holder c was not touched")
	}
	if v := b.Cache().Victim(); v.ID != 9 {
		t.Errorf("b was touched despite shorter TTL (victim %d)", v.ID)
	}
}

func TestGroCocaBatchedRecollection(t *testing.T) {
	h := newHarness(t, 4, true)
	cfg := testClientConfig(SchemeGroCoca)
	cfg.SigRecollectAfter = 2 // recollect only after two departures
	a := h.addHost(0, 0, 0, cfg)
	b := h.addHost(1, 50, 0, cfg)
	c := h.addHost(2, 60, 0, cfg)
	d := h.addHost(3, 70, 0, cfg)
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(10, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(11, time.Hour); err != nil {
		t.Fatal(err)
	}
	join(a, b)
	join(a, c)
	join(a, d)
	h.run(time.Second)
	if a.peerVec.Members() != 3 {
		t.Fatalf("members = %d, want 3", a.peerVec.Members())
	}
	// First departure: below the batch threshold, the vector stays stale
	// and still covers the departed member's item (a false positive).
	leave(a, b)
	h.run(time.Second)
	if !a.peerVec.CoversElement(9) {
		t.Error("vector recollected after a single departure despite batching")
	}
	// Second departure crosses the threshold: reset + recollect from d.
	leave(a, c)
	h.run(time.Second)
	if a.peerVec.CoversElement(9) || a.peerVec.CoversElement(10) {
		t.Error("departed members' items still covered after batched recollection")
	}
	if !a.peerVec.CoversElement(11) {
		t.Error("remaining member's item lost after recollection")
	}
}
