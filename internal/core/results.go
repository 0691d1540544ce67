package core

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/network"
	"repro/internal/stats"
)

// Results are the metrics of one simulation run over the measured window —
// the quantities the paper's figures plot, plus auxiliary protocol
// counters.
type Results struct {
	Scheme    string
	Completed bool // false when the safety horizon expired first

	Requests uint64
	// MeanLatency is the mean access latency over measured requests;
	// P50/P95/P99 are the corresponding latency quantiles.
	MeanLatency time.Duration
	P50Latency  time.Duration
	P95Latency  time.Duration
	P99Latency  time.Duration
	// Outcome ratios over measured requests.
	LocalHitRatio      float64
	GlobalHitRatio     float64
	ServerRequestRatio float64
	FailureRatio       float64

	// TotalEnergy is the energy all hosts consumed over the measured
	// window, in µW·s; EnergyBreakdown splits it by accounting category
	// (p2p-send, bcast-recv, server-recv, ...).
	TotalEnergy     float64
	EnergyBreakdown map[string]float64
	// EnergyPerGCH is total energy divided by global cache hits (the
	// paper's power-per-GCH metric); equal to TotalEnergy when GCH = 0.
	EnergyPerGCH float64

	// DownlinkUtilization is the busy fraction of the MSS downlink — the
	// congestion indicator behind the scalability experiment.
	DownlinkUtilization float64

	// EnergyFairness is Jain's fairness index over per-host energy: 1 when
	// every host pays the same, lower when a few hosts carry the load.
	EnergyFairness float64

	// SimTime is the simulated time consumed; Events the kernel events
	// processed.
	SimTime time.Duration
	Events  uint64

	// Aux carries protocol-internal counters (validations, filter
	// bypasses, cooperative evictions, signature traffic, ...).
	Aux client.AuxCounters

	// Faults reports what the installed fault plan destroyed and how the
	// hardened protocol recovered. All zero when no faults were injected.
	Faults FaultReport
}

// FaultReport aggregates the per-channel loss, outage, churn, and
// recovery counters of one run.
type FaultReport struct {
	// P2PDrops breaks the shared-medium drops down by cause (including
	// the non-fault causes: disconnected senders, unreachable
	// destinations, unregistered nodes).
	P2PDrops network.DropCounts
	// LinkDrops breaks the server uplink/downlink losses down by cause.
	LinkDrops network.LinkDrops
	// OutageSeconds is the total scheduled infrastructure outage time
	// overlapping the run, in seconds.
	OutageSeconds float64
	// RetrieveRetries counts alternate-holder retries after data
	// timeouts; ServerRescues counts re-sent MSS exchanges and
	// RescueFailures the requests failed after exhausting them.
	RetrieveRetries uint64
	ServerRescues   uint64
	RescueFailures  uint64
	// Crashes counts host crash events, CrashAborts the in-flight
	// requests they destroyed.
	Crashes     uint64
	CrashAborts uint64
	// OutstandingRequests counts hosts still holding an in-flight
	// request when the run ended; non-zero means the protocol stalled.
	OutstandingRequests int
}

// Any reports whether the run saw any fault, recovery, or stall event.
func (f FaultReport) Any() bool {
	return f.P2PDrops.Fault > 0 || f.LinkDrops.Total() > 0 || f.OutageSeconds > 0 ||
		f.RetrieveRetries > 0 || f.ServerRescues > 0 || f.RescueFailures > 0 ||
		f.Crashes > 0 || f.OutstandingRequests > 0
}

// String renders a one-line fault summary.
func (f FaultReport) String() string {
	return fmt.Sprintf(
		"p2p-fault-drops=%d up-drops=%d/%d down-drops=%d/%d/%d outage=%.0fs retries=%d rescues=%d rescue-failures=%d crashes=%d aborts=%d outstanding=%d",
		f.P2PDrops.Fault,
		f.LinkDrops.UplinkFault, f.LinkDrops.UplinkOutage,
		f.LinkDrops.DownlinkFault, f.LinkDrops.DownlinkOutage, f.LinkDrops.DownlinkDisconnected,
		f.OutageSeconds, f.RetrieveRetries, f.ServerRescues, f.RescueFailures,
		f.Crashes, f.CrashAborts, f.OutstandingRequests,
	)
}

func (s *Simulation) results(completed bool) Results {
	c := s.collector
	aux := c.Aux()
	faults := FaultReport{
		P2PDrops:            s.medium.Drops(),
		LinkDrops:           s.link.Drops(),
		RetrieveRetries:     aux.RetrieveRetries,
		ServerRescues:       aux.ServerRescues,
		RescueFailures:      aux.RescueFailures,
		Crashes:             aux.Crashes,
		CrashAborts:         aux.CrashAborts,
		OutstandingRequests: s.OutstandingRequests(),
	}
	if s.faults != nil {
		faults.OutageSeconds = s.faults.OutageSecondsUntil(s.kernel.Now())
	}
	return Results{
		Scheme:              s.cfg.Scheme.String(),
		Completed:           completed,
		Requests:            c.Requests(),
		MeanLatency:         c.MeanLatency(),
		P50Latency:          c.LatencyQuantile(0.5),
		P95Latency:          c.LatencyQuantile(0.95),
		P99Latency:          c.LatencyQuantile(0.99),
		LocalHitRatio:       c.OutcomeRatio(client.OutcomeLocalHit),
		GlobalHitRatio:      c.OutcomeRatio(client.OutcomeGlobalHit),
		ServerRequestRatio:  c.OutcomeRatio(client.OutcomeServerRequest),
		FailureRatio:        c.OutcomeRatio(client.OutcomeFailure),
		TotalEnergy:         c.TotalEnergy(),
		EnergyBreakdown:     s.meter.Breakdown(),
		EnergyPerGCH:        c.EnergyPerGlobalHit(),
		DownlinkUtilization: s.link.DownlinkUtilization(),
		EnergyFairness:      energyFairness(s.meter),
		SimTime:             s.kernel.Now(),
		Events:              s.kernel.Processed(),
		Aux:                 aux,
		Faults:              faults,
	}
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf(
		"%-8s latency=%-10v LCH=%5.1f%% GCH=%5.1f%% server=%5.1f%% power/GCH=%.0fµWs (n=%d)",
		r.Scheme, r.MeanLatency.Round(100*time.Microsecond),
		100*r.LocalHitRatio, 100*r.GlobalHitRatio, 100*r.ServerRequestRatio,
		r.EnergyPerGCH, r.Requests,
	)
}

// Run is the one-call convenience API: assemble and run a simulation.
func Run(cfg Config) (Results, error) {
	s, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return s.Run()
}

// energyFairness computes Jain's index over the energy accounts of the
// hosts charged since the warm-up reset, visited in ID order: float sums
// are not associative, so a varying order would perturb the last bits run
// to run and break the byte-identical reproducibility guarantee.
func energyFairness(m *network.Meter) float64 {
	return stats.JainIndex(m.Accounts())
}
