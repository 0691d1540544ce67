package audit

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// This file is the resilience-layer half of the auditor's
// client.AuditSink and adds two invariant families on top of the four
// documented in audit.go:
//
//   - breaker-state-machine — every per-host MSS-link breaker transition
//     must follow a legal edge (closed→open, open→half-open,
//     half-open→closed, half-open→open) from the state the auditor last
//     observed; a miswired breaker (e.g. open closing directly) is
//     flagged on its first illegal edge;
//   - retry-budget-conservation — budget spends arrive one unit at a
//     time, never exceed the policy cap, and only for a request that is
//     actually open.
//
// At Finish the spends per kind, the breaker opens, the hedges and the
// degraded serve-stale hits must reconcile exactly with the client's
// counters and cause attribution.
//
// Degraded serves bypass HitServed (their whole point is to violate the
// TTL contract), so the staleness oracle accounts them here: the serving
// copy must have an admission contract, must actually be past it, and is
// classified fresh/stale against the catalog ground truth like any other
// hit.

// BreakerTransition implements client.AuditSink: the
// breaker-state-machine legality check.
func (a *Auditor) BreakerTransition(at time.Duration, host network.NodeID, from, to resilience.State, cause string) {
	if tracked, ok := a.breakers[host]; ok && tracked != from {
		a.violate("breaker-state-machine", at, host,
			fmt.Sprintf("transition %v→%v (%s) departs from %v, but the last observed state is %v", from, to, cause, from, tracked))
	}
	a.breakers[host] = to
	if to == resilience.Open {
		a.breakerOpens++
	}
	legal := (from == resilience.Closed && to == resilience.Open) ||
		(from == resilience.Open && to == resilience.HalfOpen) ||
		(from == resilience.HalfOpen && to == resilience.Closed) ||
		(from == resilience.HalfOpen && to == resilience.Open)
	if !legal {
		a.violate("breaker-state-machine", at, host,
			fmt.Sprintf("illegal edge %v→%v (%s)", from, to, cause))
	}
}

// RetrySpent implements client.AuditSink: the budget-conservation
// check. Spends must arrive in single units, stay within the policy cap,
// and belong to an open request.
func (a *Auditor) RetrySpent(at time.Duration, host network.NodeID, seq uint64, kind string, spent, budget int) {
	key := reqKey{host: host, seq: seq}
	if _, open := a.open[key]; !open {
		a.violate("retry-budget", at, host,
			fmt.Sprintf("request seq %d spent a %s retry while not in flight", seq, kind))
	}
	if prev := a.budgets[key]; spent != prev+1 {
		a.violate("retry-budget", at, host,
			fmt.Sprintf("request seq %d budget jumped %d→%d on %s (spends must be single units)", seq, prev, spent, kind))
	}
	if spent > budget {
		a.violate("retry-budget", at, host,
			fmt.Sprintf("request seq %d spent %d of a %d-unit budget on %s", seq, spent, budget, kind))
	}
	a.budgets[key] = spent
	a.spends[kind]++
}

// DegradedServe implements client.AuditSink: the serve-stale leg of
// the staleness oracle. The serve is only legal during an open-breaker
// window, from a copy with a real admission contract that has actually
// expired; ground-truth freshness is classified like any other hit.
func (a *Auditor) DegradedServe(at time.Duration, host network.NodeID, item workload.ItemID, retrievedAt, expiresAt time.Duration) {
	a.degradedServes++
	if st, ok := a.breakers[host]; !ok || st != resilience.Open {
		got := "no breaker observed"
		if ok {
			got = "breaker " + st.String()
		}
		a.violate("degraded-serve", at, host,
			fmt.Sprintf("item %d served stale outside an open-breaker window (%s)", item, got))
	}
	c, ok := a.contracts[contractKey{host: host, item: item}]
	switch {
	case !ok:
		a.violate("degraded-serve", at, host,
			fmt.Sprintf("item %d served stale with no admission contract", item))
	case retrievedAt != c.retrievedAt:
		a.violate("degraded-serve", at, host,
			fmt.Sprintf("item %d served stale with retrieval time %v, contract says %v", item, retrievedAt, c.retrievedAt))
	default:
		bound := c.retrievedAt + c.ttl
		if expiresAt > bound {
			a.violate("ttl-inflation", at, host,
				fmt.Sprintf("stale item %d claims expiry %v beyond contract %v", item, expiresAt, bound))
		}
		if at <= bound {
			a.violate("degraded-serve", at, host,
				fmt.Sprintf("item %d served as stale %v before its contract expires (a valid copy must serve as a plain hit)", item, bound-at))
		}
	}
	if a.catalog != nil {
		if a.catalog.UpdatedSince(item, retrievedAt) {
			a.staleServes++
		} else {
			a.freshServes++
		}
	}
}

// HedgeIssued implements client.AuditSink.
func (a *Auditor) HedgeIssued(at time.Duration, host network.NodeID, seq uint64, holder network.NodeID) {
	a.hedges++
	if _, open := a.open[reqKey{host: host, seq: seq}]; !open {
		a.violate("retry-budget", at, host,
			fmt.Sprintf("request seq %d hedged to holder %d while not in flight", seq, holder))
	}
}

// reconcile checks, at Finish, the client's counters against the events
// the audit observed: every counted retrieve retry and server rescue must
// have produced a RetrySpent of its kind, every hedge a HedgeIssued,
// every breaker open a →open edge, and every serve-stale hit exactly one
// DegradedServe and one "serve-stale" cause.
func (a *Auditor) reconcile(at time.Duration, aux client.AuxCounters) {
	for _, c := range []struct {
		invariant, what   string
		counted, observed uint64
	}{
		{"retry-budget", "retrieve retries", aux.RetrieveRetries, a.spends["retrieve-retry"]},
		{"retry-budget", "server rescues", aux.ServerRescues, a.spends["server-rescue"]},
		{"retry-budget", "hedged retrieves", aux.HedgedRetrieves, a.hedges},
		{"breaker-state-machine", "breaker opens", aux.BreakerOpens, a.breakerOpens},
		{"degraded-serve", "serve-stale hits", aux.ServeStaleHits, a.degradedServes},
		{"degraded-serve", "serve-stale terminations", a.causes["serve-stale"], a.degradedServes},
	} {
		if c.counted != c.observed {
			a.violate(c.invariant, at, -1,
				fmt.Sprintf("client counts %d %s, audit observed %d", c.counted, c.what, c.observed))
		}
	}
}
