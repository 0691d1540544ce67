package client

import (
	"time"

	"repro/internal/network"
	"repro/internal/stats"
)

// Outcome classifies how a request was satisfied, per Section III.
type Outcome int

// The request outcomes of the paper's taxonomy. Validated local copies
// count as local hits; validation refreshes count as server requests.
const (
	OutcomeLocalHit Outcome = iota + 1
	OutcomeGlobalHit
	OutcomeServerRequest
	OutcomeFailure
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeLocalHit:
		return "local-hit"
	case OutcomeGlobalHit:
		return "global-hit"
	case OutcomeServerRequest:
		return "server-request"
	case OutcomeFailure:
		return "failure"
	default:
		return "unknown"
	}
}

// Collector aggregates the per-request measurements across all hosts of one
// simulation run. It handles the warm-up discipline: each host announces
// when it has passed its warm-up quota, and once every host has, the shared
// power meter is reset so energy is only accounted over the measured
// window.
type Collector struct {
	meter     *network.Meter
	numHosts  int
	warm      int
	done      int
	onAllDone func()

	latency      stats.Welford
	latencyDist  stats.Sample
	outcomes     map[Outcome]uint64
	aux          AuxCounters
	measureStart time.Duration

	// GroupOf, when set by the assembler, maps a node to its motion group
	// so global hits can be attributed to same-group vs foreign providers.
	GroupOf func(network.NodeID) int

	// OnRecord, when set, receives every measured request as it completes
	// — the per-request trace feed.
	OnRecord func(at time.Duration, host network.NodeID, outcome Outcome, latency time.Duration)

	// Audit, when set, receives the full protocol event feed (warm-up
	// included) for online invariant checking; nil for ordinary runs.
	Audit AuditSink
}

// NewCollector creates a collector for numHosts hosts charging energy to
// meter. onAllDone, if non-nil, fires when every host has completed its
// request quota (the simulation's stop signal).
func NewCollector(numHosts int, meter *network.Meter, onAllDone func()) *Collector {
	return &Collector{
		meter:     meter,
		numHosts:  numHosts,
		onAllDone: onAllDone,
		outcomes:  make(map[Outcome]uint64),
	}
}

// hostWarm is called once per host when it passes its warm-up quota. When
// the last host warms up, energy accounting restarts.
func (c *Collector) hostWarm(now time.Duration) {
	c.warm++
	if c.warm == c.numHosts {
		c.meter.Reset()
		c.measureStart = now
	}
}

// allWarm reports whether every host has passed warm-up; only then are
// request measurements recorded.
func (c *Collector) allWarm() bool { return c.warm >= c.numHosts }

// hostDone is called once per host when it completes all its requests.
func (c *Collector) hostDone() {
	c.done++
	if c.done == c.numHosts && c.onAllDone != nil {
		c.onAllDone()
	}
}

// record folds one measured request into the statistics.
func (c *Collector) record(at time.Duration, host network.NodeID, outcome Outcome, latency time.Duration) {
	c.latency.Add(float64(latency))
	c.latencyDist.Add(float64(latency))
	c.outcomes[outcome]++
	if c.OnRecord != nil {
		c.OnRecord(at, host, outcome, latency)
	}
}

// Requests returns the number of measured requests.
func (c *Collector) Requests() uint64 { return c.latency.Count() }

// MeanLatency returns the mean measured access latency.
func (c *Collector) MeanLatency() time.Duration {
	return time.Duration(c.latency.Mean())
}

// LatencyQuantile returns the q-quantile of the measured access latency.
func (c *Collector) LatencyQuantile(q float64) time.Duration {
	return time.Duration(c.latencyDist.Quantile(q))
}

// OutcomeCount returns the number of measured requests with the given
// outcome.
func (c *Collector) OutcomeCount(o Outcome) uint64 { return c.outcomes[o] }

// OutcomeRatio returns the fraction of measured requests with the given
// outcome.
func (c *Collector) OutcomeRatio(o Outcome) float64 {
	return stats.Ratio(c.outcomes[o], c.Requests())
}

// TotalEnergy returns the energy consumed since the measurement window
// opened, in µW·s.
func (c *Collector) TotalEnergy() float64 { return c.meter.Total() }

// EnergyPerGlobalHit returns total energy divided by global cache hits, the
// paper's power-per-GCH metric. With zero hits it returns total energy.
func (c *Collector) EnergyPerGlobalHit() float64 {
	gch := c.outcomes[OutcomeGlobalHit]
	if gch == 0 {
		return c.meter.Total()
	}
	return c.meter.Total() / float64(gch)
}

// MeasureStart returns the simulation time the measurement window opened.
func (c *Collector) MeasureStart() time.Duration { return c.measureStart }

// Aux returns the auxiliary protocol counters.
func (c *Collector) Aux() AuxCounters { return c.aux }

// recordProvider attributes a global hit to a provider group.
func (c *Collector) recordProvider(requester, provider network.NodeID) {
	if c.GroupOf == nil {
		return
	}
	if c.GroupOf(requester) == c.GroupOf(provider) {
		c.aux.SameGroupHits++
	} else {
		c.aux.OtherGroupHits++
	}
}

// AuxCounters expose protocol-internal event counts for the ablation
// analyses.
type AuxCounters struct {
	Validations         uint64
	Refreshes           uint64
	PeerTimeouts        uint64
	FilterBypasses      uint64
	AdmissionSkips      uint64
	CoopEvictions       uint64
	SingletDrops        uint64
	SigExchanges        uint64
	SigBytes            uint64
	SameGroupHits       uint64
	OtherGroupHits      uint64
	TuneIns             uint64
	BroadcastDeliveries uint64
	BroadcastDrops      uint64
	SpillsSent          uint64
	SpillsAccepted      uint64
	// Fault-tolerance counters: retrieve retries after data timeouts,
	// rescue re-sends of lost MSS exchanges (and the requests failed
	// after exhausting them), and crash churn events.
	RetrieveRetries uint64
	ServerRescues   uint64
	RescueFailures  uint64
	Crashes         uint64
	CrashAborts     uint64
	// Resilience counters. All zero unless the policy sets the respective
	// mechanism (breaker, hedging, serve-stale, deadline); omitempty keeps
	// the seed-digest goldens of the default Legacy policy unchanged.
	ServeStaleHits   uint64 `json:",omitempty"`
	BreakerOpens     uint64 `json:",omitempty"`
	BreakerProbes    uint64 `json:",omitempty"`
	BreakerFastFails uint64 `json:",omitempty"`
	HedgedRetrieves  uint64 `json:",omitempty"`
	DeadlineFailures uint64 `json:",omitempty"`
}
