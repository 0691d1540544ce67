// Package client implements the mobile host (MH): the request loop over the
// listed caching schemes — the paper's SC, COCA and GroCoca plus the
// extension schemes — including the P2P search protocol with adaptive
// timeout, TTL-based consistency, client disconnection, and the full
// GroCoca machinery (cache signature scheme, signature exchange protocol,
// cooperative cache admission control and replacement). Which subsystems a
// host runs is decided by the scheme's strategy.Traits, not by per-scheme
// switches.
//
// The package also declares Config, the one simulation parameter set: its
// defaults (DefaultConfig) and its validation (Config.Validate). A host
// reads its own parameters straight from it, and internal/core aliases it
// as core.Config.
package client

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/network"
	"repro/internal/push"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Scheme selects which caching protocol a host runs; it aliases the
// scheme-table ID so listed schemes flow through client and core
// configuration unchanged.
type Scheme = strategy.ID

// Re-exported scheme IDs (see internal/strategy for the full table).
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
	// Mobility selects the reference trajectory model; GridSpacing is the
	// street spacing for the Manhattan model.
	Mobility    MobilityModel
	GridSpacing float64

	// ServiceAreaRadius bounds the MSS coverage around the space center;
	// zero covers the whole space. Hosts outside coverage that need the
	// MSS record access failures (Section III outcome 4).
	ServiceAreaRadius float64

	// Channels. HopDist bounds the P2P search flood depth; 1 searches
	// direct neighbors only.
	ServerDownlinkKbps float64
	ServerUplinkKbps   float64
	P2PBandwidthKbps   float64
	TranRange          float64 // metres
	HopDist            int

	// Workload.
	AccessRange      int
	Zipf             float64 // θ
	MeanInterarrival time.Duration
	WarmupRequests   int
	MeasuredRequests int
	// LowActivityFraction makes that share of hosts low-activity: their
	// mean interarrival time is ten times longer and their request quotas
	// ten times smaller (see internal/core). Models the heterogeneous
	// client populations the spillover scheme targets.
	LowActivityFraction float64
	// HotspotShiftEvery, when positive, drifts every group's interests
	// periodically: HotspotShiftFraction, in (0, 1], of the rank→item
	// mapping is re-permuted (a non-stationary workload extension; zero
	// keeps the paper's stationary Zipf pattern).
	HotspotShiftEvery    time.Duration
	HotspotShiftFraction float64

	// Data updates and consistency.
	DataUpdateRate float64 // items per second, 0 disables
	ReviseEvery    time.Duration

	// Client disconnection.
	DiscProb         float64
	DiscMin, DiscMax time.Duration

	// FixedTimeout, when positive, replaces COCA's adaptive search
	// timeout τ (an ablation switch).
	FixedTimeout time.Duration

	// GroCoca TCG discovery.
	DistanceThreshold   float64 // Δ
	SimilarityThreshold float64 // δ
	DistanceWeight      float64 // ω
	// GroupCriteria selects the membership conditions: the paper's TCG
	// (both, the default) or the single-criterion baselines.
	GroupCriteria server.GroupCriteria

	// GroCoca cache signature scheme.
	SigBits   int // σ
	SigHashes int // k

	// GroCoca cooperative replacement.
	ReplaceCandidate int
	ReplaceDelay     int

	// SigRecollectAfter batches signature recollection: the peer counter
	// vector is reset and recollected only after this many TCG members
	// have departed (Section IV.D.4's option for extremely dynamic
	// networks). Values ≤ 1 recollect on every departure.
	SigRecollectAfter int

	// GroCoca explicit updates.
	ExplicitUpdateAfter time.Duration // τ_P
	PeerAccessSample    float64       // ρ_P

	// Data delivery model (the intro's pull / push / hybrid comparison).
	// Pull is the paper's environment and the default. Push broadcasts the
	// whole catalog on a dedicated channel; Hybrid broadcasts the
	// BroadcastHotItems most demanded items and pulls the rest.
	Delivery           DeliveryModel
	BroadcastKbps      float64
	BroadcastHotItems  int
	BroadcastReshuffle time.Duration

	// EnableSpillover turns on the companion scheme of reference [5]: a
	// host evicting a still-valid item offers it to a neighbor whose
	// request activity is below SpilloverActivityRatio of its own and
	// whose cache has room.
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

	// Protocol hardening against the faults above, active whether or not
	// faults are injected. ServerRescueFactor scales the estimated MSS
	// round-trip into the rescue timeout and must be at least 1.
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

		ServerDownlinkKbps: 2000,
		ServerUplinkKbps:   200,
		P2PBandwidthKbps:   2000,
		TranRange:          100,
		HopDist:            1,

		AccessRange:      500,
		Zipf:             0.5,
		MeanInterarrival: time.Second,
		WarmupRequests:   150,
		MeasuredRequests: 250,

		DataUpdateRate: 0,
		ReviseEvery:    10 * time.Second,

		DiscProb: 0,
		DiscMin:  10 * time.Second,
		DiscMax:  50 * time.Second,

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

		SigBits:   10000,
		SigHashes: 2,

		ReplaceCandidate: 5,
		ReplaceDelay:     2,

		// ρ_P is kept moderately high so the MSS still observes the access
		// pattern of hosts whose misses are mostly served by peers —
		// otherwise global-hit-heavy hosts starve the similarity matrix.
		ExplicitUpdateAfter: 10 * time.Second,
		PeerAccessSample:    0.5,

		Mobility:    MobilityWaypoint,
		GridSpacing: 100,

		EnableSpillover:        false,
		SpilloverActivityRatio: 0.5,

		Delivery:           DeliveryPull,
		BroadcastKbps:      10000,
		BroadcastHotItems:  300,
		BroadcastReshuffle: 30 * time.Second,

		// Hardening defaults: one alternate-holder retry, three rescue
		// re-sends of a lost MSS exchange. Crash downtimes apply only
		// when CrashMTBF is set.
		Resilience:           resilience.Legacy(),
		ServerRescueFactor:   3,
		HotspotShiftFraction: 0.2,
		CrashDownMin:         5 * time.Second,
		CrashDownMax:         30 * time.Second,
	}
}

// Validate reports whether the configuration is runnable. Scheme-dependent
// constraints are gated on the scheme's traits, so a new table entry is
// validated by the machinery it actually opts into.
func (c Config) Validate() error {
	strat, ok := strategy.Lookup(c.Scheme)
	if !ok {
		return fmt.Errorf("client: unknown scheme %d (known: %s)",
			int(c.Scheme), strings.Join(strategy.Flags(), ", "))
	}
	traits := strat.Traits()
	if c.NumClients <= 0 {
		return fmt.Errorf("client: NumClients %d must be positive", c.NumClients)
	}
	if c.NData <= 0 {
		return fmt.Errorf("client: NData %d must be positive", c.NData)
	}
	if c.AccessRange <= 0 || c.AccessRange > c.NData {
		return fmt.Errorf("client: AccessRange %d outside (0, %d]", c.AccessRange, c.NData)
	}
	if err := workload.ValidateSkew(c.Zipf); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if err := cache.ValidateCapacity(c.CacheSize); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.DataSize <= 0 {
		return fmt.Errorf("client: data size %d must be positive", c.DataSize)
	}
	if c.GroupSize <= 0 {
		return fmt.Errorf("client: GroupSize %d must be positive", c.GroupSize)
	}
	if !(c.GroupRadius >= 0) || math.IsInf(c.GroupRadius, 1) {
		return fmt.Errorf("client: GroupRadius %v must be non-negative and finite", c.GroupRadius)
	}
	if c.Mobility < MobilityWaypoint || c.Mobility > MobilityManhattan {
		return fmt.Errorf("client: unknown mobility model %d", int(c.Mobility))
	}
	motionErr := c.Motion().Validate()
	if c.Mobility == MobilityManhattan {
		motionErr = c.Motion().ValidateManhattan(c.GridSpacing)
	}
	if motionErr != nil {
		return fmt.Errorf("client: %w", motionErr)
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("client: MeanInterarrival %v must be positive", c.MeanInterarrival)
	}
	if !(c.ServerDownlinkKbps > 0) || !(c.ServerUplinkKbps > 0) {
		return fmt.Errorf("client: server bandwidths must be positive")
	}
	if !(c.ServiceAreaRadius >= 0) {
		return fmt.Errorf("client: ServiceAreaRadius %v must be non-negative", c.ServiceAreaRadius)
	}
	// Every scheme builds the medium, SC included.
	if err := c.Medium().Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if !(c.DataUpdateRate >= 0) {
		return fmt.Errorf("client: DataUpdateRate %v must be non-negative", c.DataUpdateRate)
	}
	if c.ReviseEvery <= 0 {
		return fmt.Errorf("client: ReviseEvery %v must be positive", c.ReviseEvery)
	}
	if !(c.LowActivityFraction >= 0 && c.LowActivityFraction <= 1) {
		return fmt.Errorf("client: LowActivityFraction %v outside [0, 1]", c.LowActivityFraction)
	}
	if c.LowActivityFraction > 0 && float64(c.MeanInterarrival)*LowActivityFactor >= math.MaxInt64 {
		return fmt.Errorf("client: MeanInterarrival %v times %d overflows a low-activity host's wait", c.MeanInterarrival, LowActivityFactor)
	}
	if c.HotspotShiftEvery < 0 {
		return fmt.Errorf("client: negative HotspotShiftEvery %v", c.HotspotShiftEvery)
	}
	if c.HotspotShiftEvery > 0 && !(c.HotspotShiftFraction > 0 && c.HotspotShiftFraction <= 1) {
		return fmt.Errorf("client: HotspotShiftFraction %v outside (0, 1]", c.HotspotShiftFraction)
	}
	if traits.PeerSearch {
		if c.HopDist < 1 {
			return fmt.Errorf("client: hop distance %d must be at least 1", c.HopDist)
		}
		if c.FixedTimeout < 0 {
			return fmt.Errorf("client: negative fixed timeout %v", c.FixedTimeout)
		}
	}
	if !(c.DiscProb >= 0 && c.DiscProb <= 1) {
		return fmt.Errorf("client: disconnect probability %v outside [0, 1]", c.DiscProb)
	}
	if c.DiscProb > 0 && (c.DiscMin <= 0 || c.DiscMax < c.DiscMin) {
		return fmt.Errorf("client: disconnect duration range [%v, %v] invalid", c.DiscMin, c.DiscMax)
	}
	if c.EnableSpillover {
		if !traits.PeerSearch {
			return fmt.Errorf("client: spillover needs a cooperative scheme")
		}
		if !(c.SpilloverActivityRatio > 0 && c.SpilloverActivityRatio <= 1) {
			return fmt.Errorf("client: spillover activity ratio %v outside (0, 1]", c.SpilloverActivityRatio)
		}
	}
	if traits.Signatures {
		if err := c.TCG().Validate(); err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if c.SigBits <= 0 || c.SigHashes <= 0 {
			return fmt.Errorf("client: signature geometry (%d, %d) invalid", c.SigBits, c.SigHashes)
		}
		if !(c.PeerAccessSample >= 0 && c.PeerAccessSample <= 1) {
			return fmt.Errorf("client: peer access sample %v outside [0, 1]", c.PeerAccessSample)
		}
	}
	if c.ReplaceCandidate < 1 {
		return fmt.Errorf("client: replace candidate window %d must be at least 1", c.ReplaceCandidate)
	}
	if c.ReplaceDelay < 1 {
		return fmt.Errorf("client: replace delay %d must be at least 1", c.ReplaceDelay)
	}
	if c.Delivery < DeliveryPull || c.Delivery > DeliveryHybrid {
		return fmt.Errorf("client: unknown delivery model %d", int(c.Delivery))
	}
	if c.Delivery != DeliveryPull {
		if err := c.Broadcast().Validate(); err != nil {
			return fmt.Errorf("client: %w", err)
		}
	}
	if err := c.FaultPlan().Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if !(c.ServerRescueFactor >= 1) {
		return fmt.Errorf("client: server rescue factor %v must be at least 1", c.ServerRescueFactor)
	}
	if err := c.Resilience.Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.WarmupRequests < 0 || c.MeasuredRequests <= 0 {
		return fmt.Errorf("client: request counts (warmup %d, measured %d) invalid", c.WarmupRequests, c.MeasuredRequests)
	}
	return nil
}

// pause is the dwell time at each waypoint, a Table II single value.
const pause = time.Second

// LowActivityFactor multiplies a low-activity host's mean interarrival time
// and divides its request quotas (see Config.LowActivityFraction). No
// figure varies it.
const LowActivityFactor = 10

// Motion projects the motion groups' trajectory parameters.
func (c Config) Motion() mobility.Config {
	return mobility.Config{Space: geo.NewRect(c.SpaceWidth, c.SpaceHeight), MinSpeed: c.MinSpeed, MaxSpeed: c.MaxSpeed, Pause: pause}
}

// Medium projects the P2P medium's parameters.
func (c Config) Medium() network.MediumConfig {
	return network.MediumConfig{BandwidthKbps: c.P2PBandwidthKbps, RangeM: c.TranRange, BruteForce: c.BruteForceReachability}
}

// TCG projects the MSS's group discovery thresholds.
func (c Config) TCG() server.TCGConfig {
	return server.TCGConfig{
		DistanceThreshold:   c.DistanceThreshold,
		SimilarityThreshold: c.SimilarityThreshold,
		DistanceWeight:      c.DistanceWeight,
		Criteria:            c.GroupCriteria,
	}
}

// Broadcast projects the broadcast disk of push and hybrid delivery. Pure
// push broadcasts the whole catalog on a static schedule.
func (c Config) Broadcast() push.Config {
	if c.Delivery == DeliveryPush {
		return push.Config{BandwidthKbps: c.BroadcastKbps, HotItems: c.NData}
	}
	return push.Config{BandwidthKbps: c.BroadcastKbps, HotItems: c.BroadcastHotItems, ReshuffleEvery: c.BroadcastReshuffle}
}

// FaultPlan projects the fault-injection parameters; a zero result means
// ideal channels.
func (c Config) FaultPlan() network.FaultPlanConfig {
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
