package client

import (
	"time"

	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// AuditSink receives the protocol-level events an online invariant auditor
// needs: request lifecycle boundaries (for conservation checking), cache
// admissions (the TTL contract each copy was granted), the hits served
// from those copies (for the ground-truth staleness oracle), fault events
// (for recovery-SLO attribution), and the resilience layer's events —
// breaker edges, retry spends, degraded serves and hedges. All callbacks
// run on the kernel goroutine at the instant the event happens;
// implementations must not mutate protocol state or consume simulation
// randomness.
type AuditSink interface {
	// RequestBegan fires when a host issues request seq for item.
	RequestBegan(at time.Duration, host network.NodeID, seq uint64, item workload.ItemID)
	// RequestEnded fires exactly once per begun request with its terminal
	// outcome. cause attributes non-hit terminations ("" for ordinary
	// completions; e.g. "crash-abort", "rescue-exhausted",
	// "out-of-service-area" for failures).
	RequestEnded(at time.Duration, host network.NodeID, seq uint64, item workload.ItemID, outcome Outcome, cause string, latency time.Duration)
	// CopyAdmitted fires whenever a copy of item enters (or is refreshed
	// in) the host's cache with the given TTL — the consistency contract
	// every later hit on that copy must honor.
	CopyAdmitted(at time.Duration, host network.NodeID, item workload.ItemID, ttl time.Duration)
	// HitServed fires when a request is satisfied from a cached copy:
	// locally (provider == host) or by a peer (outcome == global hit).
	// retrievedAt and expiresAt describe the serving copy's contract as
	// the protocol believes it.
	HitServed(at time.Duration, host, provider network.NodeID, item workload.ItemID, outcome Outcome, retrievedAt, expiresAt time.Duration)
	// FaultEvent fires on host-level fault transitions (cause "crash").
	FaultEvent(at time.Duration, host network.NodeID, cause string)
	// BreakerTransition fires on every breaker state edge.
	BreakerTransition(at time.Duration, host network.NodeID, from, to resilience.State, cause string)
	// RetrySpent fires on every re-send: request seq spent one unit of its
	// retry budget; spent is the cumulative count after this spend, budget
	// the policy cap. kind attributes the spend ("retrieve-retry" or
	// "server-rescue").
	RetrySpent(at time.Duration, host network.NodeID, seq uint64, kind string, spent, budget int)
	// DegradedServe fires when an expired cached copy answers a request
	// during an open-breaker window (serve-stale mode). It bypasses
	// HitServed because it deliberately violates the TTL contract;
	// retrievedAt and expiresAt describe the stale copy's original
	// contract.
	DegradedServe(at time.Duration, host network.NodeID, item workload.ItemID, retrievedAt, expiresAt time.Duration)
	// HedgeIssued fires when a slow first retrieve is hedged with a second
	// one to holder.
	HedgeIssued(at time.Duration, host network.NodeID, seq uint64, holder network.NodeID)
}

// audit returns the attached sink, or nil when the run is unaudited. The
// nil fast path keeps the hooks free for ordinary runs.
func (h *Host) audit() AuditSink {
	if h.collector == nil {
		return nil
	}
	return h.collector.Audit
}

// SearchTimeout exposes the host's current peer-search timeout τ, for the
// bounded-τ structural invariant (0 for SC hosts, which never search).
func (h *Host) SearchTimeout() time.Duration {
	if !h.traits.PeerSearch {
		return 0
	}
	return h.searchTimeout()
}

// SignatureDirty reports whether the host's counting-filter signature has
// a negative-counter defect (GroCoca only; false otherwise).
func (h *Host) SignatureDirty() bool {
	if h.ownSig == nil {
		return false
	}
	return h.ownSig.Dirty()
}

// OwnSignatureCovers reports whether the host's own cache signature
// covers the item — every cached item must be covered, or TCG peers
// filter out searches that would have hit.
func (h *Host) OwnSignatureCovers(item workload.ItemID) bool {
	if h.ownSig == nil {
		return false
	}
	return h.ownSig.Test(uint64(item))
}
