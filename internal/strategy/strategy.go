// Package strategy is the pluggable caching-scheme registry. A Scheme
// bundles everything that distinguishes one cooperative-caching protocol
// from another — peer-lookup policy, cooperation-group participation,
// admission control, and replacement ranking — behind one interface, so
// the host, the assembler, the sweep pool, and the command-line tools
// enumerate schemes from the registry instead of switching on constants.
//
// The paper's three schemes (SC, COCA, GroCoca) are registered here as the
// first three implementations; see schemes.go for them and for the two
// extension schemes (popularity-ranking cooperative caching and the
// neighbour-hint cooperative LRU). Every registered scheme is run through
// the universal conformance suite in strategy/conformance.
package strategy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/workload"
)

// ID identifies a registered scheme. IDs are mixed into derived seeds
// (experiments.deriveSeed) and journal keys, so an ID, once registered, is
// part of the reproducibility contract and must never be renumbered.
type ID int

// The registered scheme IDs. 1-3 are the paper's evaluation; 4-5 are the
// extension schemes from the related work.
const (
	// SC is conventional caching: local cache, then the MSS.
	SC ID = 1
	// COCA adds the P2P peer search between the local cache and the MSS.
	COCA ID = 2
	// GroCoca adds tightly-coupled groups, cache signatures, and the
	// cooperative cache management protocols on top of COCA.
	GroCoca ID = 3
	// Popularity is popularity-ranking cooperative caching: GroCoca's
	// group machinery with a per-item access-frequency replacement
	// ranking instead of the LRU candidate walk.
	Popularity ID = 4
	// HintLRU is the neighbour-hint cooperative LRU: COCA's search with a
	// replacement ranking that prefers evicting items fresh NDP beacon
	// hints say a neighbour also caches.
	HintLRU ID = 5
)

// String returns the registered display name ("SC", "GroCoca", ...), or
// "unknown" for an unregistered ID. Results and checkpoints record this
// name, so it is part of the golden-digest contract.
func (id ID) String() string {
	if s, ok := Lookup(id); ok {
		return s.Name()
	}
	return "unknown"
}

// Traits declares which protocol machinery a scheme participates in. The
// host consults traits instead of comparing scheme constants, so a new
// scheme opts into existing subsystems by setting flags rather than by
// editing per-scheme switches.
type Traits struct {
	// PeerSearch runs the COCA P2P search (NDP, broadcast flood, adaptive
	// timeout) between the local cache and the MSS.
	PeerSearch bool
	// Signatures maintains the GroCoca signature machinery: TCG
	// membership from the MSS, the counting-filter cache signature, the
	// peer counter vector, delta piggybacking, and explicit updates. It
	// also runs the two mechanisms built on them: the signature filtering
	// before the peer search, and cooperative cache admission control
	// (items supplied by a TCG member are not replicated into a full
	// cache, and the longest-TTL member copy is touched). The
	// DisableFilter and DisableAdmission ablation switches turn either
	// off per run.
	Signatures bool
	// NeighborHints piggybacks recently-used item IDs on NDP beacons and
	// feeds the hint table consulted via ReplacementEnv.NeighborHinted.
	NeighborHints bool
}

// EvictOutcome classifies a replacement decision so the host can maintain
// the shared eviction counters without knowing the scheme's ranking.
type EvictOutcome int

// Replacement outcomes.
const (
	// EvictLRU is a plain least-valuable eviction.
	EvictLRU EvictOutcome = iota
	// EvictCoop evicted a probably-replicated (or neighbour-hinted) copy
	// in favour of retaining unique data.
	EvictCoop
	// EvictSinglet dropped a replica-less item whose SingletTTL expired.
	EvictSinglet
)

// ReplacementEnv is the host-side view a scheme's replacement ranking may
// consult. The host implements it; conformance tests provide fakes.
type ReplacementEnv interface {
	// PeerMembers is the number of group members whose cache signatures
	// are folded into the peer vector (0 without signature machinery).
	PeerMembers() int
	// PeerCovered reports whether the peer signature covers the item — a
	// probable replica within the cooperation group.
	PeerCovered(item workload.ItemID) bool
	// NeighborHinted reports whether a fresh neighbour beacon hinted the
	// item (always false without the NeighborHints trait).
	NeighborHinted(item workload.ItemID) bool
	// CoopReplaceDisabled reports the DisableCoopReplace ablation switch.
	CoopReplaceDisabled() bool
}

// Scheme is one pluggable caching strategy.
type Scheme interface {
	// ID is the stable numeric identity (seed derivation, journal keys).
	ID() ID
	// Name is the display name used in results, figures and checkpoints;
	// its lower-case spelling (FlagOf) names the scheme on command lines.
	Name() string
	// Traits declares the protocol machinery the scheme participates in.
	Traits() Traits
	// ReplaceActive reports whether PickVictim should rank the candidate
	// window for this eviction; false falls back to plain LRU eviction.
	ReplaceActive(env ReplacementEnv) bool
	// PickVictim chooses the entry to evict from the candidate window
	// (least-valuable first, cands[0] is the LRU victim; never empty).
	// It may mutate candidate SingletTTL counters, mirroring GroCoca's
	// delayed singlet drop.
	PickVictim(env ReplacementEnv, cands []*cache.Entry) (*cache.Entry, EvictOutcome)
}

// FlagOf returns the scheme's command-line spelling, its lower-case name.
func FlagOf(s Scheme) string { return strings.ToLower(s.Name()) }

// Registry holds a set of registered schemes. The package-level default
// registry serves the whole program; NewRegistry exists so tests can
// exercise registration edge cases in isolation.
type Registry struct {
	mu     sync.RWMutex
	byID   map[ID]Scheme
	byFlag map[string]Scheme
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:   make(map[ID]Scheme),
		byFlag: make(map[string]Scheme),
	}
}

// Register adds a scheme. It panics on a non-positive ID, an empty name,
// or any collision with an already registered scheme — registration
// happens at init time, and a duplicate is a programming error that must
// not be silently resolved by registration order.
func (r *Registry) Register(s Scheme) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := s.ID()
	if id <= 0 {
		panic(fmt.Sprintf("strategy: scheme %q has non-positive ID %d", s.Name(), id))
	}
	if s.Name() == "" {
		panic(fmt.Sprintf("strategy: scheme ID %d needs a name", id))
	}
	flag := FlagOf(s)
	if prev, ok := r.byID[id]; ok {
		panic(fmt.Sprintf("strategy: duplicate scheme ID %d (%q and %q)", id, prev.Name(), s.Name()))
	}
	if prev, ok := r.byFlag[flag]; ok {
		panic(fmt.Sprintf("strategy: duplicate scheme flag %q (names %q and %q, IDs %d and %d)", flag, prev.Name(), s.Name(), prev.ID(), id))
	}
	r.byID[id] = s
	r.byFlag[flag] = s
}

// Lookup returns the scheme registered under id.
func (r *Registry) Lookup(id ID) (Scheme, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byID[id]
	return s, ok
}

// ByFlag returns the scheme registered under the flag spelling.
func (r *Registry) ByFlag(flag string) (Scheme, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byFlag[flag]
	return s, ok
}

// IDs returns the registered IDs in ascending order, independent of
// registration order.
func (r *Registry) IDs() []ID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]ID, 0, len(r.byID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// All returns the registered schemes in ascending ID order.
func (r *Registry) All() []Scheme {
	ids := r.IDs()
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Scheme, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.byID[id])
	}
	return out
}

// Flags returns the registered flag spellings in ascending ID order — the
// canonical enumeration for usage strings and error messages.
func (r *Registry) Flags() []string {
	out := make([]string, 0)
	for _, s := range r.All() {
		out = append(out, FlagOf(s))
	}
	return out
}

// defaultRegistry is the program-wide registry populated by init in
// schemes.go (and, under the conformance selftest, by the test harness).
var defaultRegistry = NewRegistry()

// Register adds a scheme to the default registry (see Registry.Register).
func Register(s Scheme) { defaultRegistry.Register(s) }

// Lookup returns the scheme registered under id in the default registry.
func Lookup(id ID) (Scheme, bool) { return defaultRegistry.Lookup(id) }

// ByFlag returns the default-registry scheme with the flag spelling.
func ByFlag(flag string) (Scheme, bool) { return defaultRegistry.ByFlag(flag) }

// IDs enumerates the default registry in ascending ID order.
func IDs() []ID { return defaultRegistry.IDs() }

// All enumerates the default registry's schemes in ascending ID order.
func All() []Scheme { return defaultRegistry.All() }

// Flags enumerates the default registry's flag spellings in ID order.
func Flags() []string { return defaultRegistry.Flags() }

// TraitsOf returns the traits of the scheme registered under id, or the
// zero Traits for an unregistered ID (every capability off).
func TraitsOf(id ID) Traits {
	if s, ok := Lookup(id); ok {
		return s.Traits()
	}
	return Traits{}
}
