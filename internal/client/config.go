// Package client implements the mobile host (MH): the request loop over the
// registered caching schemes — the paper's SC, COCA and GroCoca plus the
// extension schemes — including the P2P search protocol with adaptive
// timeout, TTL-based consistency, client disconnection, and the full
// GroCoca machinery (cache signature scheme, signature exchange protocol,
// cooperative cache admission control and replacement). Which subsystems a
// host runs is decided by the scheme's strategy.Traits, not by per-scheme
// switches.
package client

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/resilience"
	"repro/internal/strategy"
)

// Scheme selects which caching protocol a host runs; it aliases the
// registry ID so registered schemes flow through client and core
// configuration unchanged.
type Scheme = strategy.ID

// Re-exported scheme IDs (see internal/strategy for the full registry).
const (
	SchemeSC      = strategy.SC
	SchemeCOCA    = strategy.COCA
	SchemeGroCoca = strategy.GroCoca
)

// DeliveryModel selects how misses that reach the MSS are served: the
// paper's pull-based environment (default), a pure push broadcast disk, or
// the hybrid of both.
type DeliveryModel int

// Delivery models. The zero value is the paper's default pull environment.
const (
	DeliveryPull DeliveryModel = iota
	DeliveryPush
	DeliveryHybrid
)

// String names the delivery model.
func (d DeliveryModel) String() string {
	switch d {
	case DeliveryPull:
		return "pull"
	case DeliveryPush:
		return "push"
	case DeliveryHybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// Config holds the per-host protocol parameters (Table II of the paper,
// client side).
type Config struct {
	// Scheme is the caching protocol.
	Scheme Scheme
	// Delivery selects pull, push or hybrid dissemination for MSS misses.
	Delivery DeliveryModel
	// CacheSize is the cache capacity in data items.
	CacheSize int
	// DataSize is the item size in bytes (for cache entries and data
	// messages).
	DataSize int
	// HopDist bounds the P2P search flood depth; 1 searches direct
	// neighbors only.
	HopDist int
	// InitialTimeoutFactor is ϕ, scaling the default round-trip estimate
	// used before the adaptive timeout has samples.
	InitialTimeoutFactor float64
	// TimeoutStdDevFactor is ϕ', the standard deviation multiplier in
	// τ = τ̄ + ϕ'·σ_τ.
	TimeoutStdDevFactor float64
	// FixedTimeout, when positive, disables the adaptive timeout (an
	// ablation switch).
	FixedTimeout time.Duration

	// P2PBandwidthKbps mirrors the medium bandwidth for timeout
	// estimation.
	P2PBandwidthKbps float64

	// ServiceRadius bounds the MSS service area around ServiceCenter;
	// zero means the whole space is covered. A host outside the area that
	// needs the MSS records an access failure (Section III outcome 4).
	ServiceRadius                  float64
	ServiceCenterX, ServiceCenterY float64

	// Disconnection model.
	DiscProb         float64
	DiscMin, DiscMax time.Duration

	// Explicit update parameters (GroCoca).
	ExplicitUpdateAfter time.Duration // τ_P
	PeerAccessSample    float64       // ρ_P

	// GroCoca cache signature scheme.
	SigBits          int // σ
	SigHashes        int // k
	CacheCounterBits int // π_c

	// GroCoca cooperative replacement.
	ReplaceCandidate int
	ReplaceDelay     int

	// SigRecollectAfter batches signature recollection: the peer counter
	// vector is reset and recollected only after this many TCG members
	// have departed (Section IV.D.4's option for extremely dynamic
	// networks; the delay trades recollection traffic for false
	// positives). Values ≤ 1 recollect on every departure.
	SigRecollectAfter int

	// Spillover (the companion scheme of reference [5]: utilizing the
	// cache space of low-activity clients). When enabled, a host evicting
	// a still-valid item offers it to a neighbor whose request activity is
	// below SpilloverActivityRatio of its own and whose cache has room.
	EnableSpillover        bool
	SpilloverActivityRatio float64

	// ServerRescueFactor scales the estimated MSS round-trip (transmission
	// times plus queue backlog) into the rescue timeout; values below 1
	// fall back to 3.
	ServerRescueFactor float64

	// Resilience is the whole recovery configuration: per-mechanism retry
	// caps under a per-request retry budget, exponential backoff with
	// optional jitter, and the optional deadline, MSS server-link circuit
	// breaker, hedged peer retrieval and serve-stale degraded mode.
	// resilience.Legacy() is the hardened paper protocol.
	Resilience resilience.Policy

	// Ablation switches.
	DisableFilter      bool
	DisableAdmission   bool
	DisableCoopReplace bool
	DisableCompression bool

	// Workload bookkeeping.
	WarmupRequests   int
	MeasuredRequests int
}

// Validate reports whether the configuration is usable for the selected
// scheme. Scheme-dependent constraints are gated on the registered
// scheme's traits, so a new registry entry is validated by the machinery
// it actually opts into.
func (c Config) Validate() error {
	strat, ok := strategy.Lookup(c.Scheme)
	if !ok {
		return fmt.Errorf("client: unknown scheme %d (registered: %s)",
			int(c.Scheme), strings.Join(strategy.Flags(), ", "))
	}
	traits := strat.Traits()
	if c.CacheSize <= 0 {
		return fmt.Errorf("client: cache size %d must be positive", c.CacheSize)
	}
	if c.DataSize <= 0 {
		return fmt.Errorf("client: data size %d must be positive", c.DataSize)
	}
	if traits.PeerSearch {
		if c.HopDist < 1 {
			return fmt.Errorf("client: hop distance %d must be at least 1", c.HopDist)
		}
		if c.P2PBandwidthKbps <= 0 {
			return fmt.Errorf("client: p2p bandwidth %v must be positive", c.P2PBandwidthKbps)
		}
		if c.InitialTimeoutFactor <= 0 && c.FixedTimeout <= 0 {
			return fmt.Errorf("client: need a positive timeout factor or fixed timeout")
		}
		// Negative factors are rejected outright, even when a fixed timeout
		// would mask them: a later switch back to the adaptive timeout must
		// not inherit a nonsensical ϕ or ϕ'.
		if c.InitialTimeoutFactor < 0 {
			return fmt.Errorf("client: negative initial timeout factor %v", c.InitialTimeoutFactor)
		}
		if c.TimeoutStdDevFactor < 0 {
			return fmt.Errorf("client: negative timeout stddev factor %v", c.TimeoutStdDevFactor)
		}
		if c.FixedTimeout < 0 {
			return fmt.Errorf("client: negative fixed timeout %v", c.FixedTimeout)
		}
	}
	if c.DiscProb < 0 || c.DiscProb > 1 {
		return fmt.Errorf("client: disconnect probability %v outside [0, 1]", c.DiscProb)
	}
	if c.EnableSpillover {
		if !traits.PeerSearch {
			return fmt.Errorf("client: spillover needs a cooperative scheme")
		}
		if c.SpilloverActivityRatio <= 0 || c.SpilloverActivityRatio > 1 {
			return fmt.Errorf("client: spillover activity ratio %v outside (0, 1]", c.SpilloverActivityRatio)
		}
	}
	if c.DiscProb > 0 && (c.DiscMin <= 0 || c.DiscMax < c.DiscMin) {
		return fmt.Errorf("client: disconnect duration range [%v, %v] invalid", c.DiscMin, c.DiscMax)
	}
	if traits.Signatures {
		if c.SigBits <= 0 || c.SigHashes <= 0 {
			return fmt.Errorf("client: signature geometry (%d, %d) invalid", c.SigBits, c.SigHashes)
		}
		if c.CacheCounterBits < 1 || c.CacheCounterBits > 32 {
			return fmt.Errorf("client: cache counter bits %d outside [1, 32]", c.CacheCounterBits)
		}
		if c.PeerAccessSample < 0 || c.PeerAccessSample > 1 {
			return fmt.Errorf("client: peer access sample %v outside [0, 1]", c.PeerAccessSample)
		}
	}
	if traits.RankedReplace {
		if c.ReplaceCandidate < 1 {
			return fmt.Errorf("client: replace candidate window %d must be at least 1", c.ReplaceCandidate)
		}
		if c.ReplaceDelay < 1 {
			return fmt.Errorf("client: replace delay %d must be at least 1", c.ReplaceDelay)
		}
	}
	if c.ServerRescueFactor < 0 {
		return fmt.Errorf("client: server rescue factor %v must be non-negative", c.ServerRescueFactor)
	}
	if err := c.Resilience.Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.WarmupRequests < 0 || c.MeasuredRequests <= 0 {
		return fmt.Errorf("client: request counts (warmup %d, measured %d) invalid", c.WarmupRequests, c.MeasuredRequests)
	}
	return nil
}
