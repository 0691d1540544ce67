package client

import (
	"time"

	"repro/internal/workload"
)

// Neighbour hints (the HintLRU scheme): each host piggybacks the IDs of
// its few most-recently-used valid items on NDP beacons; receivers keep a
// soft-state table of when each item was last hinted, and the replacement
// ranking prefers evicting an item a fresh hint says a neighbour also
// caches — a lightweight stand-in for GroCoca's signature machinery. The
// table follows the spillover beacon-table contract: re-learned from
// periodic beacons, stale after three intervals.

// maxBeaconHints bounds the per-beacon hint list (four bytes each on air).
const maxBeaconHints = 4

// hintState records when an item was last hinted by any neighbour.
type hintState struct {
	heardAt time.Duration
}

// recordNeighborHints folds a neighbour's beacon hints into the table and
// lazily prunes stale entries so the table stays bounded by the active
// neighbourhood.
func (h *Host) recordNeighborHints(hints []workload.ItemID) {
	if !h.traits.NeighborHints || len(hints) == 0 {
		return
	}
	now := h.k.Now()
	if h.neighborHints == nil {
		h.neighborHints = make(map[workload.ItemID]hintState)
	} else {
		for item, st := range h.neighborHints {
			if now-st.heardAt > beaconStaleAfter {
				delete(h.neighborHints, item)
			}
		}
	}
	for _, item := range hints {
		h.neighborHints[item] = hintState{heardAt: now}
	}
}

// NeighborHinted implements strategy.ReplacementEnv: whether a fresh
// neighbour beacon hinted the item.
func (h *Host) NeighborHinted(item workload.ItemID) bool {
	st, ok := h.neighborHints[item]
	if !ok {
		return false
	}
	return h.k.Now()-st.heardAt <= beaconStaleAfter
}
