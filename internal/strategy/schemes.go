package strategy

import (
	"repro/internal/cache"
)

func init() {
	Register(scScheme{})
	Register(cocaScheme{})
	Register(grococaScheme{})
	Register(popularityScheme{})
	Register(hintLRUScheme{})
}

// scScheme is conventional caching: no peer machinery, plain LRU.
type scScheme struct{}

func (scScheme) ID() ID                            { return SC }
func (scScheme) Name() string                      { return "SC" }
func (scScheme) Traits() Traits                    { return Traits{} }
func (scScheme) ReplaceActive(ReplacementEnv) bool { return false }
func (scScheme) PickVictim(_ ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	return cands[0], EvictLRU
}

// cocaScheme adds the P2P peer search; replacement stays plain LRU.
type cocaScheme struct{}

func (cocaScheme) ID() ID                            { return COCA }
func (cocaScheme) Name() string                      { return "COCA" }
func (cocaScheme) Traits() Traits                    { return Traits{PeerSearch: true} }
func (cocaScheme) ReplaceActive(ReplacementEnv) bool { return false }
func (cocaScheme) PickVictim(_ ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	return cands[0], EvictLRU
}

// grococaScheme is the paper's full protocol: TCGs, cache signatures, the
// filtering mechanism, cooperative admission, and the delayed-singlet
// cooperative replacement of Section IV.E.
type grococaScheme struct{}

func (grococaScheme) ID() ID       { return GroCoca }
func (grococaScheme) Name() string { return "GroCoca" }
func (grococaScheme) Traits() Traits {
	return Traits{
		PeerSearch: true,
		Signatures: true,
	}
}

// ReplaceActive: the cooperative ranking needs at least one collected
// member signature to consult; otherwise eviction is plain LRU.
func (grococaScheme) ReplaceActive(env ReplacementEnv) bool {
	return !env.CoopReplaceDisabled() && env.PeerMembers() > 0
}

// PickVictim prefers, among the candidate window, the first entry whose
// data signature is covered by the peer signature (a probable replica in
// the TCG); the SingletTTL counter keeps replica-less items from being
// retained forever.
func (grococaScheme) PickVictim(env ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	for i, e := range cands {
		if !env.PeerCovered(e.ID) {
			continue
		}
		if i > 0 {
			// The least valuable item was spared for lacking a replica;
			// count down its SingletTTL and drop it outright once
			// exhausted.
			lv := cands[0]
			lv.SingletTTL--
			if lv.SingletTTL <= 0 {
				return lv, EvictSinglet
			}
		}
		return e, EvictCoop
	}
	// No candidate is probably replicated: replace the least valuable.
	return cands[0], EvictLRU
}

// popularityScheme is popularity-ranking cooperative caching (after the
// Wang/Kulkarni line of work): GroCoca's group and signature machinery
// with a replacement ranking that evicts the least-accessed item in the
// candidate window, breaking ties toward copies the peer signature says
// are replicated in the group.
type popularityScheme struct{}

func (popularityScheme) ID() ID       { return Popularity }
func (popularityScheme) Name() string { return "Popularity" }
func (popularityScheme) Traits() Traits {
	return Traits{
		PeerSearch: true,
		Signatures: true,
	}
}

// ReplaceActive: the access-frequency ranking is local, so it runs even
// before any member signature has been collected.
func (popularityScheme) ReplaceActive(env ReplacementEnv) bool {
	return !env.CoopReplaceDisabled()
}

// PickVictim evicts the least-accessed candidate; on equal access counts a
// peer-covered copy loses to an uncovered one (the group retains unique
// data), and remaining ties keep the more recently used entry.
func (popularityScheme) PickVictim(env ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	best := cands[0]
	bestCovered := env.PeerCovered(best.ID)
	for _, e := range cands[1:] {
		covered := env.PeerCovered(e.ID)
		if e.Accesses < best.Accesses ||
			(e.Accesses == best.Accesses && covered && !bestCovered) {
			best, bestCovered = e, covered
		}
	}
	if bestCovered {
		return best, EvictCoop
	}
	return best, EvictLRU
}

// hintLRUScheme is the neighbour-hint cooperative LRU: COCA's peer search
// plus soft-state hints — each host piggybacks its most-recently-used item
// IDs on NDP beacons, and eviction prefers the first candidate a fresh
// hint says a neighbour also caches.
type hintLRUScheme struct{}

func (hintLRUScheme) ID() ID       { return HintLRU }
func (hintLRUScheme) Name() string { return "HintLRU" }
func (hintLRUScheme) Traits() Traits {
	return Traits{
		PeerSearch:    true,
		NeighborHints: true,
	}
}

func (hintLRUScheme) ReplaceActive(env ReplacementEnv) bool {
	return !env.CoopReplaceDisabled()
}

func (hintLRUScheme) PickVictim(env ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome) {
	for _, e := range cands {
		if env.NeighborHinted(e.ID) {
			return e, EvictCoop
		}
	}
	return cands[0], EvictLRU
}
