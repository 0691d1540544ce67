package client

import (
	"slices"
	"time"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// cacheCounterBits is π_c, the width of each cache-signature counter
// (Table II).
const cacheCounterBits = 4

// The signature exchange carries its content in Message.Extra: a SigRequest
// broadcast for a recollection carries the requester's sorted TCG member
// list as a []network.NodeID (a direct request carries none, and only
// listed peers answer a broadcast one), and a SigReply carries the full
// signature as a *bloom.Filter.

// sigDelta is the signature update information piggybacked on NDP
// beacons ("other useful information") and on request broadcasts: the bit
// positions the owner's cache signature set and cleared since its last
// announcement.
type sigDelta struct {
	insert []int
	evict  []int
}

// reusePiggyback reports whether the host's own beaconInfo and sigDelta
// may carry the hello or search broadcast it is about to send, and
// empties them when they may: when its NIC holds no frame. Reusing them
// is exact. Only frames on the host's own NIC reference its records,
// because a forwarder replaces Extra with a *route; receivers fold a
// delta or a hello without keeping it; and the content is still computed
// at send time. Otherwise the sender allocates fresh records.
//
//hot:every hello and every GroCoca search broadcast
func (h *Host) reusePiggyback() bool {
	if !h.medium.Idle(h.id) {
		return false
	}
	h.beacon = beaconInfo{Hints: h.beacon.Hints[:0]}
	h.delta = sigDelta{insert: h.delta.insert[:0], evict: h.delta.evict[:0]}
	return true
}

// beaconPayload supplies the "other useful information" of the hello
// message: the pending GroCoca signature delta (hosts without TCG members
// discard theirs — nobody tracks their signature, and a future join
// triggers a full exchange anyway), the neighbour hints and, when
// spillover is enabled, the host's activity and spare-space announcement.
//
//hot:every hello a host sends
func (h *Host) beaconPayload() (any, int) {
	info, d := &h.beacon, &h.delta
	if !h.reusePiggyback() {
		info, d = &beaconInfo{}, &sigDelta{}
	}
	extra := 0
	if h.traits.Signatures {
		d.insert, d.evict = h.ownSig.Delta(d.insert, d.evict)
		if (len(d.insert) > 0 || len(d.evict) > 0) && h.tcgSize > 0 {
			// Each position costs two bytes on air (σ ≤ 64 Ki).
			info.SigDelta = d
			extra += 2 * (len(d.insert) + len(d.evict))
		}
	}
	if h.traits.NeighborHints {
		info.Hints = h.cache.AppendValid(info.Hints, maxBeaconHints, h.k.Now())
		// Each hinted item ID costs four bytes on air.
		extra += 4 * len(info.Hints)
	}
	if h.cfg.EnableSpillover {
		info.ActivityPerSec = h.activityPerSec()
		info.HasSpace = !h.cache.Full()
		extra += 5 // activity (4 bytes) + space flag
	}
	if info.SigDelta == nil && len(info.Hints) == 0 && !h.cfg.EnableSpillover {
		return nil, 0
	}
	return info, extra
}

// admit places a freshly obtained item into the cache, running the
// cooperative cache admission control and replacement protocols of Section
// IV.E for GroCoca hosts and plain LRU replacement otherwise.
//
//hot:every MSS and peer retrieval; 0 allocs/op pinned by TestRequestPathAllocs
func (h *Host) admit(item workload.ItemID, now, ttl time.Duration, fromTCG bool) {
	if e := h.cache.Peek(item); e != nil {
		// Refresh the existing copy in place.
		e.RetrievedAt = now
		e.TTL = ttl
		e.SingletTTL = h.cfg.ReplaceDelay
		h.cache.Touch(item, now)
		if a := h.audit(); a != nil {
			a.CopyAdmitted(now, h.id, item, ttl)
		}
		return
	}
	if h.cache.Full() {
		// Cooperative admission control: an item supplied by a TCG member
		// is not replicated when the cache is full — it is readily
		// available from that member.
		if fromTCG && !h.cfg.DisableAdmission {
			h.collector.aux.AdmissionSkips++
			return
		}
		victim := h.pickVictim()
		if victim == nil {
			return
		}
		// The removed victim stays readable until the Add below, so
		// spillover can still offer it.
		h.cache.Remove(victim.ID)
		h.sigRemove(victim.ID)
		h.maybeSpill(victim)
	}
	entry := cache.Entry{
		ID:          item,
		Size:        h.cfg.DataSize,
		RetrievedAt: now,
		TTL:         ttl,
		LastAccess:  now,
		SingletTTL:  h.cfg.ReplaceDelay,
	}
	if err := h.cache.Add(entry); err != nil {
		return // cannot happen: space was just ensured
	}
	h.sigInsert(item)
	if a := h.audit(); a != nil {
		a.CopyAdmitted(now, h.id, item, ttl)
	}
}

// pickVictim chooses the entry to evict by dispatching to the scheme's
// replacement ranking over the ReplaceCandidate least valuable entries
// (cands[0] is the plain LRU victim). Schemes whose ranking is inactive —
// by trait, ablation switch, or missing peer state — fall back to plain
// LRU eviction.
func (h *Host) pickVictim() *cache.Entry {
	if !h.strat.ReplaceActive(h) {
		return h.cache.Victim()
	}
	cands := h.cache.Candidates(h.cands, h.cfg.ReplaceCandidate)
	h.cands = cands
	if len(cands) == 0 {
		return nil
	}
	victim, outcome := h.strat.PickVictim(h, cands)
	switch outcome {
	case strategy.EvictCoop:
		h.collector.aux.CoopEvictions++
	case strategy.EvictSinglet:
		h.collector.aux.SingletDrops++
	}
	return victim
}

// The host is the ReplacementEnv its scheme's replacement ranking sees.
var _ strategy.ReplacementEnv = (*Host)(nil)

// PeerMembers implements strategy.ReplacementEnv.
func (h *Host) PeerMembers() int {
	if h.peerVec == nil {
		return 0
	}
	return h.peerVec.Members()
}

// PeerCovered implements strategy.ReplacementEnv.
func (h *Host) PeerCovered(item workload.ItemID) bool {
	if h.peerVec == nil {
		return false
	}
	return h.peerVec.CoversElement(uint64(item))
}

// CoopReplaceDisabled implements strategy.ReplacementEnv.
func (h *Host) CoopReplaceDisabled() bool { return h.cfg.DisableCoopReplace }

// sigInsert maintains the proactive cache signature after an insertion.
func (h *Host) sigInsert(item workload.ItemID) {
	if !h.traits.Signatures {
		return
	}
	h.ownSig.Insert(uint64(item))
	if h.ownSig.Dirty() {
		h.rebuildOwnSig()
	}
}

// sigRemove maintains the cache signature after an eviction.
func (h *Host) sigRemove(item workload.ItemID) {
	if !h.traits.Signatures {
		return
	}
	h.ownSig.Remove(uint64(item))
	if h.ownSig.Dirty() {
		h.rebuildOwnSig()
	}
}

// rebuildOwnSig reconstructs the counter vector from the cache contents
// after a saturation or underflow event.
func (h *Host) rebuildOwnSig() {
	h.sigElems = h.sigElems[:0]
	for _, id := range h.cache.Items() {
		h.sigElems = append(h.sigElems, uint64(id))
	}
	h.ownSig.Rebuild(h.sigElems)
}

// applySigDelta folds a TCG member's piggybacked signature update into the
// peer counter vector and the stored member signature.
func (h *Host) applySigDelta(from network.NodeID, inserts, evicts []int) {
	if len(inserts) == 0 && len(evicts) == 0 {
		return
	}
	h.peerVec.ApplyDelta(inserts, evicts)
	if sig, ok := h.haveSig[from]; ok {
		for _, p := range inserts {
			sig.SetBit(p)
		}
		for _, p := range evicts {
			sig.ClearBit(p)
		}
	}
}

// applyMembershipChanges processes the TCG view changes piggybacked on MSS
// replies.
func (h *Host) applyMembershipChanges(changes []server.MembershipChange) {
	if !h.traits.Signatures || len(changes) == 0 {
		return
	}
	departed := 0
	for _, ch := range changes {
		if uint(ch.Peer) >= uint(len(h.tcg)) || h.tcg[ch.Peer] == ch.Joined {
			continue // outside the table, or no change
		}
		h.tcg[ch.Peer] = ch.Joined
		if ch.Joined {
			h.tcgSize++
			h.outstandSig[ch.Peer] = struct{}{}
			h.sendSigRequest(ch.Peer)
			continue
		}
		h.tcgSize--
		delete(h.outstandSig, ch.Peer)
		delete(h.haveSig, ch.Peer)
		departed++
	}
	if departed == 0 {
		return
	}
	// Members departed: reset the counter vector and recollect the
	// remaining members' signatures (Section IV.D.4). In the batched mode
	// the vector is left stale — accumulating false positives — until
	// enough departures amortise the recollection broadcast.
	h.departures += departed
	if h.cfg.SigRecollectAfter <= 1 || h.departures >= h.cfg.SigRecollectAfter {
		h.departures = 0
		h.recollectSignatures()
	}
}

// sendSigRequest asks one peer directly for its cache signature.
func (h *Host) sendSigRequest(peer network.NodeID) {
	h.medium.Send(network.Message{
		Kind: network.KindSigRequest,
		From: h.id,
		To:   peer,
		Size: network.SigRequestSize,
	})
}

// recollectSignatures resets the peer vector and broadcasts a SigRequest
// carrying the current membership list; members in range turn in their
// signatures, and the OutstandSigList tracks the rest.
func (h *Host) recollectSignatures() {
	h.peerVec.Reset()
	h.haveSig = make(map[network.NodeID]*bloom.Filter)
	h.outstandSig = make(map[network.NodeID]struct{}, h.tcgSize)
	if h.tcgSize == 0 {
		return
	}
	members := h.TCGMembers()
	for _, id := range members {
		h.outstandSig[id] = struct{}{}
	}
	h.medium.Broadcast(network.Message{
		Kind:  network.KindSigRequest,
		From:  h.id,
		Size:  network.SigRequestSize,
		Extra: members,
	})
}

// reconnectSignatures is the client disconnection handling protocol: after
// reconnecting, synchronize TCG membership with the MSS, then rebuild the
// peer counter vector from scratch.
func (h *Host) reconnectSignatures() {
	h.sendLocationUpdate(h.k.Now())
	h.recollectSignatures()
}

// handleNeighborUp retries outstanding signature collections when a peer in
// the OutstandSigList comes (back) into contact.
func (h *Host) handleNeighborUp(peer network.NodeID) {
	if !h.traits.Signatures {
		return
	}
	if _, ok := h.outstandSig[peer]; ok {
		h.sendSigRequest(peer)
	}
}

// handleSigRequest turns in this host's full cache signature when asked —
// always for direct requests, and for broadcast recollections only when
// this host appears in the membership list.
func (h *Host) handleSigRequest(msg *network.Message) {
	if !h.traits.Signatures {
		return
	}
	if members, ok := msg.Extra.([]network.NodeID); ok && !slices.Contains(members, h.id) {
		return
	}
	sig := h.ownSig.Signature()
	size := network.HeaderSize + h.sigTransferBytes(sig)
	h.collector.aux.SigExchanges++
	h.collector.aux.SigBytes += uint64(size)
	h.medium.Send(network.Message{
		Kind:  network.KindSigReply,
		From:  h.id,
		To:    msg.From,
		Size:  size,
		Extra: sig,
	})
}

// sigTransferBytes returns the on-air size of a cache signature, applying
// the VLFL compression decision of Section IV.D.2 unless disabled.
func (h *Host) sigTransferBytes(sig *bloom.Filter) int {
	raw := (h.cfg.SigBits + 7) / 8
	if h.cfg.DisableCompression {
		return raw
	}
	compress, r := bloom.ShouldCompress(h.cache.Len(), h.cfg.SigBits, h.cfg.SigHashes)
	if !compress {
		return raw
	}
	nbits, err := bloom.VLFLBits(sig, r)
	if err != nil {
		return raw
	}
	compressed := (nbits + 7) / 8
	if compressed < raw {
		return compressed
	}
	return raw
}

// handleSigReply folds a member's full signature into the peer vector,
// replacing any previously stored contribution.
func (h *Host) handleSigReply(msg *network.Message) {
	if !h.traits.Signatures {
		return
	}
	sig, ok := msg.Extra.(*bloom.Filter)
	if !ok || sig == nil {
		return
	}
	if !h.inTCG(msg.From) {
		return
	}
	delete(h.outstandSig, msg.From)
	if old, ok := h.haveSig[msg.From]; ok {
		if err := h.peerVec.RemoveSignature(old); err != nil {
			return
		}
	}
	if err := h.peerVec.AddSignature(sig); err != nil {
		return
	}
	// The sender built this filter for this one point-to-point reply and
	// keeps no reference to it, so the stored copy takes it over.
	h.haveSig[msg.From] = sig
}
