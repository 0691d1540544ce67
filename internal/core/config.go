// Package core is the public entry point of the reproduction: it assembles
// the full simulated system of the paper — mobile support station, shared
// wireless channels, motion groups of mobile hosts, workload, and one of
// the registered caching schemes (the paper's SC, COCA and GroCoca, plus
// the extension schemes in internal/strategy) — runs it to completion, and
// reports the metrics the paper's figures plot.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/strategy"
)

// Scheme aliases the client scheme selector for the public API.
type Scheme = client.Scheme

// Re-exported scheme constants.
const (
	SchemeSC         = client.SchemeSC
	SchemeCOCA       = client.SchemeCOCA
	SchemeGroCoca    = client.SchemeGroCoca
	SchemePopularity = client.SchemePopularity
	SchemeHintLRU    = client.SchemeHintLRU
)

// Schemes enumerates every registered scheme in stable (ID) order — the
// paper's trio first, then the extension schemes.
func Schemes() []Scheme {
	return strategy.IDs()
}

// SchemeFlags enumerates the command-line spellings of the registered
// schemes, in the same order as Schemes.
func SchemeFlags() []string {
	return strategy.Flags()
}

// ParseScheme resolves a command-line scheme spelling (e.g. "grococa")
// against the registry.
func ParseScheme(flag string) (Scheme, error) {
	if sch, ok := strategy.ByFlag(strings.ToLower(flag)); ok {
		return sch.ID(), nil
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want one of %s)",
		flag, strings.Join(strategy.Flags(), ", "))
}

// MobilityModel selects the motion groups' reference trajectory model.
type MobilityModel int

// Mobility models. The zero value is the paper's random waypoint model.
const (
	MobilityWaypoint MobilityModel = iota
	MobilityManhattan
)

// String names the mobility model.
func (m MobilityModel) String() string {
	switch m {
	case MobilityWaypoint:
		return "waypoint"
	case MobilityManhattan:
		return "manhattan"
	default:
		return "unknown"
	}
}

// DeliveryModel aliases the client delivery selector for the public API.
type DeliveryModel = client.DeliveryModel

// Re-exported delivery model constants.
const (
	DeliveryPull   = client.DeliveryPull
	DeliveryPush   = client.DeliveryPush
	DeliveryHybrid = client.DeliveryHybrid
)

// Config is the full simulation parameter set (Table II of the paper plus
// the ablation switches). Obtain a baseline with DefaultConfig and override
// fields as needed.
type Config struct {
	// Seed roots all randomness; the same seed replays the identical
	// workload and mobility across schemes.
	Seed int64
	// Scheme selects SC, COCA or GroCoca.
	Scheme Scheme

	// System scale.
	NumClients int
	NData      int
	DataSize   int // bytes
	CacheSize  int // items

	// Space and mobility (reference point group mobility).
	SpaceWidth, SpaceHeight float64 // metres
	GroupSize               int
	GroupRadius             float64 // metres
	MinSpeed, MaxSpeed      float64 // m/s
	Pause                   time.Duration
	// Mobility selects the reference trajectory model; GridSpacing is the
	// street spacing for the Manhattan model.
	Mobility    MobilityModel
	GridSpacing float64

	// ServiceAreaRadius bounds the MSS coverage around the space center;
	// zero covers the whole space. Hosts outside coverage that need the
	// MSS record access failures (Section III outcome 4).
	ServiceAreaRadius float64

	// Channels.
	ServerDownlinkKbps float64
	ServerUplinkKbps   float64
	P2PBandwidthKbps   float64
	TranRange          float64 // metres
	HopDist            int
	Power              network.PowerModel

	// Workload.
	AccessRange      int
	Zipf             float64 // θ
	MeanInterarrival time.Duration
	WarmupRequests   int
	MeasuredRequests int
	// LowActivityFraction makes that share of hosts low-activity: their
	// mean interarrival time is multiplied by LowActivityFactor (default
	// 10 when the fraction is positive). Models the heterogeneous client
	// populations the spillover scheme targets.
	LowActivityFraction float64
	LowActivityFactor   float64
	// HotspotShiftEvery, when positive, drifts every group's interests
	// periodically: HotspotShiftFraction of the rank→item mapping is
	// re-permuted (a non-stationary workload extension; zero keeps the
	// paper's stationary Zipf pattern).
	HotspotShiftEvery    time.Duration
	HotspotShiftFraction float64

	// Data updates and consistency.
	DataUpdateRate   float64 // items per second, 0 disables
	UpdateEWMAWeight float64 // α
	ReviseEvery      time.Duration

	// Client disconnection.
	DiscProb         float64
	DiscMin, DiscMax time.Duration

	// COCA adaptive timeout.
	InitialTimeoutFactor float64 // ϕ
	TimeoutStdDevFactor  float64 // ϕ'
	FixedTimeout         time.Duration

	// GroCoca TCG discovery.
	DistanceThreshold   float64 // Δ
	SimilarityThreshold float64 // δ
	DistanceWeight      float64 // ω
	// GroupCriteria selects the membership conditions: the paper's TCG
	// (both, the default) or the single-criterion baselines.
	GroupCriteria server.GroupCriteria

	// GroCoca cache signature scheme.
	SigBits          int // σ
	SigHashes        int // k
	CacheCounterBits int // π_c

	// GroCoca cooperative replacement.
	ReplaceCandidate int
	ReplaceDelay     int

	// SigRecollectAfter batches signature recollection after this many TCG
	// departures (≤ 1 recollects immediately).
	SigRecollectAfter int

	// GroCoca explicit updates.
	ExplicitUpdateAfter time.Duration // τ_P
	PeerAccessSample    float64       // ρ_P

	// Neighbor discovery.
	BeaconInterval     time.Duration
	BeaconMissedCycles int

	// Data delivery model (the intro's pull / push / hybrid comparison).
	// Pull is the paper's environment and the default. Push broadcasts the
	// whole catalog on a dedicated channel; Hybrid broadcasts the
	// BroadcastHotItems most demanded items and pulls the rest.
	Delivery           DeliveryModel
	BroadcastKbps      float64
	BroadcastHotItems  int
	BroadcastReshuffle time.Duration
	ListenPowerPerSec  float64 // µW·s per second of tuned-in listening

	// EnableSpillover turns on the companion scheme of reference [5]:
	// evicted but still-valid items are offered to low-activity neighbors
	// with spare cache space.
	EnableSpillover        bool
	SpilloverActivityRatio float64

	// Fault injection. All zero (the default) keeps the ideal channels;
	// any non-zero entry installs a seeded network.FaultPlan driving
	// random loss, scheduled server outages, and host crash churn.
	P2PLossProb          float64
	P2PBitErrorRate      float64
	UplinkLossProb       float64
	DownlinkLossProb     float64
	ServerOutagePeriod   time.Duration
	ServerOutageDuration time.Duration
	CrashMTBF            time.Duration
	CrashDownMin         time.Duration
	CrashDownMax         time.Duration
	// P2PBurst, UplinkBurst and DownlinkBurst layer a Gilbert–Elliott
	// burst-loss chain on the respective channel; FaultRampUp linearly
	// ramps the static loss probabilities in from zero over its duration
	// (see network.FaultPlanConfig.RampUp).
	P2PBurst      network.BurstFaults
	UplinkBurst   network.BurstFaults
	DownlinkBurst network.BurstFaults
	FaultRampUp   time.Duration

	// Protocol hardening against the faults above (active regardless of
	// whether faults are injected; see client.Config for semantics).
	// Resilience is the whole recovery configuration (see
	// resilience.Policy); the default is resilience.Legacy(), the
	// hardened paper protocol.
	ServerRescueFactor float64
	Resilience         resilience.Policy

	// Ablation switches (GroCoca).
	DisableFilter      bool
	DisableAdmission   bool
	DisableCoopReplace bool
	DisableCompression bool

	// BruteForceReachability disables the medium's uniform-grid spatial
	// index, restoring the O(N) pairwise reachability scans. Results are
	// byte-identical either way (enforced by the index-equivalence
	// tests); the flag exists for A/B verification and benchmarking.
	BruteForceReachability bool
}

// DefaultConfig returns the Table II defaults (illegible entries chosen as
// documented in DESIGN.md). Request counts are set to a laptop-friendly
// scale; raise MeasuredRequests toward the paper's 2000 for tighter
// confidence.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		Scheme:     SchemeGroCoca,
		NumClients: 100,
		NData:      10000,
		DataSize:   4096,
		CacheSize:  100,

		SpaceWidth:  1000,
		SpaceHeight: 1000,
		GroupSize:   5,
		GroupRadius: 50,
		MinSpeed:    1,
		MaxSpeed:    5,
		Pause:       time.Second,

		ServerDownlinkKbps: 2000,
		ServerUplinkKbps:   200,
		P2PBandwidthKbps:   2000,
		TranRange:          100,
		HopDist:            1,
		Power:              network.DefaultPowerModel(),

		AccessRange:      500,
		Zipf:             0.5,
		MeanInterarrival: time.Second,
		WarmupRequests:   150,
		MeasuredRequests: 250,

		DataUpdateRate:   0,
		UpdateEWMAWeight: 0.5,
		ReviseEvery:      10 * time.Second,

		DiscProb: 0,
		DiscMin:  10 * time.Second,
		DiscMax:  50 * time.Second,

		InitialTimeoutFactor: 2,
		TimeoutStdDevFactor:  3,

		// The similarity threshold is deliberately low: the MSS only
		// samples the access pattern from cache-miss requests and ρ_P-
		// sampled peer accesses, and (as Section IV.B notes) sampled
		// patterns need lower thresholds. The cosine similarity of two
		// same-hot-set sample vectors grows like λ/(λ+1) with λ observed
		// accesses per item, so same-range pairs reach ~0.15-0.3 at the
		// default request counts while disjoint-range pairs stay near 0.
		DistanceThreshold:   100,
		SimilarityThreshold: 0.12,
		DistanceWeight:      0.5,

		SigBits:          10000,
		SigHashes:        2,
		CacheCounterBits: 4,

		ReplaceCandidate: 5,
		ReplaceDelay:     2,

		// ρ_P is kept moderately high so the MSS still observes the access
		// pattern of hosts whose misses are mostly served by peers —
		// otherwise global-hit-heavy hosts starve the similarity matrix.
		ExplicitUpdateAfter: 10 * time.Second,
		PeerAccessSample:    0.5,

		BeaconInterval:     time.Second,
		BeaconMissedCycles: 2,

		Mobility:    MobilityWaypoint,
		GridSpacing: 100,

		LowActivityFactor: 10,

		EnableSpillover:        false,
		SpilloverActivityRatio: 0.5,

		Delivery:           DeliveryPull,
		BroadcastKbps:      10000,
		BroadcastHotItems:  300,
		BroadcastReshuffle: 30 * time.Second,
		ListenPowerPerSec:  50000, // ~50 mW idle listening

		// Hardening defaults: one alternate-holder retry, three rescue
		// re-sends of a lost MSS exchange. Crash downtimes apply only
		// when CrashMTBF is set.
		Resilience:         resilience.Legacy(),
		ServerRescueFactor: 3,
		CrashDownMin:       5 * time.Second,
		CrashDownMax:       30 * time.Second,
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.NumClients <= 0 {
		return fmt.Errorf("core: NumClients %d must be positive", c.NumClients)
	}
	if c.NData <= 0 {
		return fmt.Errorf("core: NData %d must be positive", c.NData)
	}
	if c.AccessRange <= 0 || c.AccessRange > c.NData {
		return fmt.Errorf("core: AccessRange %d outside (0, %d]", c.AccessRange, c.NData)
	}
	if c.GroupSize <= 0 {
		return fmt.Errorf("core: GroupSize %d must be positive", c.GroupSize)
	}
	if c.GroupRadius < 0 {
		return fmt.Errorf("core: GroupRadius %v must be non-negative", c.GroupRadius)
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("core: MeanInterarrival %v must be positive", c.MeanInterarrival)
	}
	if c.ServerDownlinkKbps <= 0 || c.ServerUplinkKbps <= 0 {
		return fmt.Errorf("core: server bandwidths must be positive")
	}
	if c.TranRange <= 0 {
		return fmt.Errorf("core: TranRange %v must be positive", c.TranRange)
	}
	if c.BeaconInterval <= 0 || c.BeaconMissedCycles < 1 {
		return fmt.Errorf("core: NDP parameters invalid")
	}
	if c.DataUpdateRate < 0 {
		return fmt.Errorf("core: DataUpdateRate %v must be non-negative", c.DataUpdateRate)
	}
	if strategy.TraitsOf(c.Scheme).Signatures {
		if c.DistanceThreshold <= 0 {
			return fmt.Errorf("core: DistanceThreshold %v must be positive", c.DistanceThreshold)
		}
		if c.SimilarityThreshold < 0 || c.SimilarityThreshold > 1 {
			return fmt.Errorf("core: SimilarityThreshold %v outside [0, 1]", c.SimilarityThreshold)
		}
	}
	if c.Mobility == MobilityManhattan && c.GridSpacing <= 0 {
		return fmt.Errorf("core: GridSpacing %v must be positive for Manhattan mobility", c.GridSpacing)
	}
	if c.LowActivityFraction < 0 || c.LowActivityFraction > 1 {
		return fmt.Errorf("core: LowActivityFraction %v outside [0, 1]", c.LowActivityFraction)
	}
	if c.LowActivityFraction > 0 && c.LowActivityFactor <= 1 {
		return fmt.Errorf("core: LowActivityFactor %v must exceed 1", c.LowActivityFactor)
	}
	if c.HotspotShiftEvery < 0 {
		return fmt.Errorf("core: negative HotspotShiftEvery %v", c.HotspotShiftEvery)
	}
	if c.Delivery != DeliveryPull {
		if c.BroadcastKbps <= 0 {
			return fmt.Errorf("core: BroadcastKbps %v must be positive", c.BroadcastKbps)
		}
		if c.Delivery == DeliveryHybrid && c.BroadcastHotItems <= 0 {
			return fmt.Errorf("core: BroadcastHotItems %d must be positive", c.BroadcastHotItems)
		}
		if c.ListenPowerPerSec < 0 {
			return fmt.Errorf("core: negative listen power %v", c.ListenPowerPerSec)
		}
	}
	if err := c.faultPlanConfig().Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The remaining client-side constraints are enforced by
	// client.Config.Validate via clientConfig.
	return c.clientConfig().Validate()
}

// faultPlanConfig projects the fault-injection parameter subset.
func (c Config) faultPlanConfig() network.FaultPlanConfig {
	return network.FaultPlanConfig{
		P2P:            network.ChannelFaults{LossProb: c.P2PLossProb, BitErrorRate: c.P2PBitErrorRate, Burst: c.P2PBurst},
		Uplink:         network.ChannelFaults{LossProb: c.UplinkLossProb, Burst: c.UplinkBurst},
		Downlink:       network.ChannelFaults{LossProb: c.DownlinkLossProb, Burst: c.DownlinkBurst},
		OutagePeriod:   c.ServerOutagePeriod,
		OutageDuration: c.ServerOutageDuration,
		CrashMTBF:      c.CrashMTBF,
		CrashDownMin:   c.CrashDownMin,
		CrashDownMax:   c.CrashDownMax,
		RampUp:         c.FaultRampUp,
	}
}

// clientConfig projects the per-host parameter subset.
func (c Config) clientConfig() client.Config {
	return client.Config{
		Scheme:                 c.Scheme,
		Delivery:               c.Delivery,
		CacheSize:              c.CacheSize,
		DataSize:               c.DataSize,
		HopDist:                c.HopDist,
		InitialTimeoutFactor:   c.InitialTimeoutFactor,
		TimeoutStdDevFactor:    c.TimeoutStdDevFactor,
		FixedTimeout:           c.FixedTimeout,
		P2PBandwidthKbps:       c.P2PBandwidthKbps,
		ServiceRadius:          c.ServiceAreaRadius,
		ServiceCenterX:         c.SpaceWidth / 2,
		ServiceCenterY:         c.SpaceHeight / 2,
		DiscProb:               c.DiscProb,
		DiscMin:                c.DiscMin,
		DiscMax:                c.DiscMax,
		ExplicitUpdateAfter:    c.ExplicitUpdateAfter,
		PeerAccessSample:       c.PeerAccessSample,
		SigBits:                c.SigBits,
		SigHashes:              c.SigHashes,
		CacheCounterBits:       c.CacheCounterBits,
		ReplaceCandidate:       c.ReplaceCandidate,
		ReplaceDelay:           c.ReplaceDelay,
		SigRecollectAfter:      c.SigRecollectAfter,
		EnableSpillover:        c.EnableSpillover,
		SpilloverActivityRatio: c.SpilloverActivityRatio,
		ServerRescueFactor:     c.ServerRescueFactor,
		Resilience:             c.Resilience,
		DisableFilter:          c.DisableFilter,
		DisableAdmission:       c.DisableAdmission,
		DisableCoopReplace:     c.DisableCoopReplace,
		DisableCompression:     c.DisableCompression,
		WarmupRequests:         c.WarmupRequests,
		MeasuredRequests:       c.MeasuredRequests,
	}
}
