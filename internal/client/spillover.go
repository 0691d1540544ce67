package client

import (
	"time"

	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/workload"
)

// Spillover implements the companion scheme of reference [5] ("utilizing
// the cache space of low-activity clients"): hosts announce their request
// activity and spare cache space on NDP beacons; an active host evicting a
// still-valid item offers it to the least active neighbor with room instead
// of dropping it, extending the group's aggregate cache onto idle devices.

// beaconInfo is the hello-message payload: the GroCoca signature delta,
// the neighbour-hint list, plus the spillover state.
type beaconInfo struct {
	SigDelta *sigDelta
	// Hints are the sender's most-recently-used valid item IDs (schemes
	// with the NeighborHints trait; see hints.go).
	Hints []workload.ItemID
	// ActivityPerSec is the host's EWMA request rate.
	ActivityPerSec float64
	// HasSpace reports whether the host's cache has free slots.
	HasSpace bool
}

// neighborState is what a host remembers about a neighbor from its beacons.
type neighborState struct {
	activityPerSec float64
	hasSpace       bool
	heard          bool
	heardAt        time.Duration
}

// observeActivity folds a new request into the host's activity estimate.
func (h *Host) observeActivity(now time.Duration) {
	if h.lastRequestAt > 0 {
		gap := now - h.lastRequestAt
		if gap > 0 {
			h.activityGap.Observe(float64(gap))
		}
	}
	h.lastRequestAt = now
}

// activityPerSec returns the host's estimated request rate.
func (h *Host) activityPerSec() float64 {
	if !h.activityGap.Set() || h.activityGap.Value() <= 0 {
		return 0
	}
	return float64(time.Second) / h.activityGap.Value()
}

// recordNeighborBeacon stores a neighbor's spillover state.
func (h *Host) recordNeighborBeacon(from network.NodeID, info beaconInfo) {
	if !h.cfg.EnableSpillover {
		return
	}
	if from < 0 {
		return
	}
	for int(from) >= len(h.neighborStates) {
		h.neighborStates = append(h.neighborStates, neighborState{})
	}
	h.neighborStates[from] = neighborState{
		activityPerSec: info.ActivityPerSec,
		hasSpace:       info.HasSpace,
		heard:          true,
		heardAt:        h.k.Now(),
	}
}

// spillTarget picks the least active neighbor that is fresh in the beacon
// table and sufficiently idle relative to this host. Donations replace the
// receiver's least-recently-used entry when its cache is full, so spare
// space is a tie-breaker rather than a requirement, and the lowest ID
// breaks the remaining ties. It returns false when no neighbor qualifies.
func (h *Host) spillTarget() (network.NodeID, bool) {
	now := h.k.Now()
	own := h.activityPerSec()
	if own <= 0 {
		return 0, false
	}
	staleAfter := 3 * h.beaconInterval
	if staleAfter <= 0 {
		staleAfter = 10 * time.Second
	}
	best := network.NodeID(-1)
	bestActivity := own * h.cfg.SpilloverActivityRatio
	bestSpace := false
	// The table is indexed by ID, so a later neighbor must be strictly
	// better to win.
	for i, st := range h.neighborStates {
		if !st.heard || now-st.heardAt > staleAfter {
			continue
		}
		if st.activityPerSec < bestActivity ||
			(st.activityPerSec == bestActivity && st.hasSpace && !bestSpace) {
			best = network.NodeID(i)
			bestActivity = st.activityPerSec
			bestSpace = st.hasSpace
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// maybeSpill offers a just-evicted, still-valid entry to a low-activity
// neighbor.
func (h *Host) maybeSpill(victim *cache.Entry) {
	if !h.cfg.EnableSpillover || victim == nil {
		return
	}
	now := h.k.Now()
	if !victim.Valid(now) {
		return
	}
	// Donate only items that proved useful (hit at least twice): one-shot
	// tail items dominate evictions and are almost never re-requested, so
	// shipping them is wasted energy.
	if victim.Accesses < 2 {
		return
	}
	target, ok := h.spillTarget()
	if !ok {
		return
	}
	h.collector.aux.SpillsSent++
	h.medium.Send(network.Message{
		Kind:        network.KindSpill,
		From:        h.id,
		To:          target,
		Size:        network.HeaderSize + h.cfg.DataSize,
		Item:        victim.ID,
		RetrievedAt: victim.RetrievedAt,
		TTL:         victim.TTL,
	})
}

// handleSpill accepts a donated item when there is room for it.
func (h *Host) handleSpill(msg network.Message) {
	if !h.cfg.EnableSpillover {
		return
	}
	now := h.k.Now()
	ttl := msg.RetrievedAt + msg.TTL - now
	if ttl <= 0 || h.cache.Peek(msg.Item) != nil {
		return
	}
	// A full cache rolls only its donated window: the donation replaces
	// the least-recently-used *donated* entry; the receiver's own items
	// are never displaced. With no donation to replace, the offer is
	// dropped.
	if h.cache.Full() {
		victim := h.cache.VictimMatching(func(e *cache.Entry) bool { return e.Donated })
		if victim == nil {
			return
		}
		h.cache.Remove(victim.ID)
		h.sigRemove(victim.ID)
	}
	entry := cache.Entry{
		ID:          msg.Item,
		Size:        h.cfg.DataSize,
		RetrievedAt: now,
		TTL:         ttl,
		LastAccess:  now,
		SingletTTL:  h.cfg.ReplaceDelay,
		Donated:     true,
	}
	if err := h.cache.Add(entry); err != nil {
		return
	}
	h.sigInsert(msg.Item)
	h.collector.aux.SpillsAccepted++
	if a := h.audit(); a != nil {
		a.CopyAdmitted(now, h.id, msg.Item, ttl)
	}
}
