package strategy

import (
	"fmt"

	"repro/internal/cache"
)

// schemes is the scheme table, indexed by ID. Listing an ID twice does not
// compile (duplicate index in slice literal), slot 0 stays empty, and
// enumeration is in ID order by construction; TestSchemeTable checks that
// each entry's ID is its index and that names are non-empty and distinct
// when lower-cased.
var schemes = []Scheme{
	SC:         scScheme{},
	COCA:       cocaScheme{},
	GroCoca:    grococaScheme{},
	Popularity: popularityScheme{},
	HintLRU:    hintLRUScheme{},
}

// Paper returns the paper's evaluation lineup — SC, COCA and GroCoca — the
// default scheme columns of every sweep and chaos matrix.
func Paper() []ID { return []ID{SC, COCA, GroCoca} }

// Lookup returns the scheme listed under id.
func Lookup(id ID) (Scheme, bool) {
	if id <= 0 || int(id) >= len(schemes) || schemes[id] == nil {
		return nil, false
	}
	return schemes[id], true
}

// ByFlag returns the scheme whose command-line spelling is flag.
func ByFlag(flag string) (Scheme, bool) {
	for _, s := range schemes {
		if s != nil && FlagOf(s) == flag {
			return s, true
		}
	}
	return nil, false
}

// All returns the listed schemes in ascending ID order.
func All() []Scheme {
	out := make([]Scheme, 0, len(schemes))
	for _, s := range schemes {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// IDs returns the listed IDs in ascending order.
func IDs() []ID {
	var out []ID
	for _, s := range All() {
		out = append(out, s.ID())
	}
	return out
}

// Flags returns the listed flag spellings in ascending ID order — the
// canonical enumeration for usage strings and error messages.
func Flags() []string {
	var out []string
	for _, s := range All() {
		out = append(out, FlagOf(s))
	}
	return out
}

// Register lists s at its ID, which must be positive and free, under a
// non-empty name whose flag no listed scheme spells; otherwise it panics.
// It is the seam through which a test runs a scheme the table does not
// hold (the conformance selftest's deliberately broken scheme), and must
// be called before any simulation starts.
func Register(s Scheme) {
	id := s.ID()
	if _, taken := Lookup(id); taken || id <= 0 {
		panic(fmt.Sprintf("strategy: scheme %q needs a free positive ID, not %d", s.Name(), id))
	}
	if s.Name() == "" {
		panic(fmt.Sprintf("strategy: scheme ID %d needs a name", id))
	}
	if other, taken := ByFlag(FlagOf(s)); taken {
		panic(fmt.Sprintf("strategy: scheme %q needs a free flag; %q is scheme %d's", s.Name(), FlagOf(s), other.ID()))
	}
	for int(id) >= len(schemes) {
		schemes = append(schemes, nil)
	}
	schemes[id] = s
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
