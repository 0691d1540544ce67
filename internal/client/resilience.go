package client

import (
	"time"

	"repro/internal/resilience"
)

// This file is the client side of the resilience layer: the thin glue
// routing the request state machine's timeouts, retries and MSS exchanges
// through the host's resilience.Policy. There is one recovery path; each
// mechanism is on when its own policy field is non-zero, and the default
// resilience.Legacy() value is the hardened paper protocol.

// deadlineExpired reports whether the outstanding request has outlived
// its propagated deadline; without a deadline it never has.
func (h *Host) deadlineExpired(p *pendingRequest) bool {
	return h.cfg.Resilience.Deadline > 0 && h.k.Now() >= p.deadlineAt
}

// failDeadline terminates the request with the deadline-exceeded cause.
func (h *Host) failDeadline(p *pendingRequest) {
	h.collector.aux.DeadlineFailures++
	p.cause = "deadline-exceeded"
	h.complete(OutcomeFailure)
}

// capToDeadline bounds a timer duration to the request's remaining
// deadline (deadline propagation), floored at one millisecond so an
// already-expired deadline still fires a timer that performs the
// deadline check. Identity without a deadline: the floor must not lift
// the sub-millisecond initial search timeout of the paper's defaults.
func (h *Host) capToDeadline(p *pendingRequest, d time.Duration) time.Duration {
	if h.cfg.Resilience.Deadline == 0 {
		return d
	}
	if rem := p.deadlineAt - h.k.Now(); d > rem {
		d = rem
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// backoff returns the timeout of a re-send: the policy backoff over base
// for the attempt, capped to the deadline. The jitter variate comes from
// the host's dedicated resil-<id> RNG stream — one draw per backoff, and
// only when jitter is configured, so the stream position is itself
// deterministic. Without jitter this is base<<attempt exactly.
func (h *Host) backoff(p *pendingRequest, base time.Duration, attempt int) time.Duration {
	var u float64
	if h.cfg.Resilience.Jitter > 0 {
		u = h.rngResil.Float64()
	}
	return h.capToDeadline(p, h.cfg.Resilience.Backoff(base, attempt, u))
}

// allowRetry reports whether a re-send may be issued: its mechanism's
// count must be under that mechanism's cap, and the request's total
// spends under the retry budget.
func (h *Host) allowRetry(p *pendingRequest, count, limit int) bool {
	return count < limit && p.budgetSpent < h.cfg.Resilience.RetryBudget
}

// spendRetryBudget charges one unit of the request's unified retry budget
// and feeds the budget-conservation invariant.
func (h *Host) spendRetryBudget(p *pendingRequest, kind string) {
	p.budgetSpent++
	if a := h.audit(); a != nil {
		a.RetrySpent(h.k.Now(), h.id, p.seq, kind, p.budgetSpent, h.cfg.Resilience.RetryBudget)
	}
}

// serverGate asks the circuit breaker whether an MSS exchange may be
// sent. A half-open pass marks the exchange as the probe. When the
// breaker refuses, the request is resolved here — served stale or
// fast-failed — and the caller must not send.
func (h *Host) serverGate(p *pendingRequest, now time.Duration) bool {
	if h.breaker == nil {
		return true
	}
	if h.breaker.Allow(now) {
		if h.breaker.Current() == resilience.HalfOpen {
			h.breaker.BeginProbe(now)
			h.collector.aux.BreakerProbes++
		}
		return true
	}
	h.degrade(p, now)
	return false
}

// degrade resolves a request the open breaker refused to send: an
// expired cached copy within the staleness bound answers it (tagged for
// the audit staleness oracle via DegradedServe, deliberately bypassing
// HitServed whose TTL contract it violates), anything else is a fast
// failure.
func (h *Host) degrade(p *pendingRequest, now time.Duration) {
	pol := h.cfg.Resilience
	if pol.ServeStale {
		if e := h.cache.Peek(p.item); e != nil {
			expiresAt := e.RetrievedAt + e.TTL
			if pol.ServeStaleMaxAge == 0 || now-expiresAt <= pol.ServeStaleMaxAge {
				h.collector.aux.ServeStaleHits++
				if a := h.audit(); a != nil {
					a.DegradedServe(now, h.id, p.item, e.RetrievedAt, expiresAt)
				}
				e.SingletTTL = h.cfg.ReplaceDelay
				p.cause = "serve-stale"
				h.complete(OutcomeLocalHit)
				return
			}
		}
	}
	h.collector.aux.BreakerFastFails++
	p.cause = "breaker-open"
	h.complete(OutcomeFailure)
}

// breakerSuccess records a completed MSS exchange with the breaker.
func (h *Host) breakerSuccess(now time.Duration) {
	if h.breaker != nil {
		h.breaker.Success(now)
	}
}

// armHedge schedules the hedged retrieve: after HedgeAfter of the data
// timeout without the data, a second retrieve races the first to the
// next-best untried holder. dataTimeout is the already-deadline-capped
// timer the hedge rides under.
func (h *Host) armHedge(p *pendingRequest, dataTimeout time.Duration) {
	pol := h.cfg.Resilience
	if pol.HedgeAfter == 0 || p.hedged {
		return
	}
	delay := time.Duration(float64(dataTimeout) * pol.HedgeAfter)
	if delay < time.Millisecond {
		delay = time.Millisecond
	}
	p.hedge = h.k.Schedule(delay, h.hedgeFn)
}

// hedgeFired issues the hedged retrieve. The first retrieve stays in
// flight: whichever data message arrives first completes the request
// (handleData matches on the request's seq, not the provider).
func (h *Host) hedgeFired() {
	p := h.cur
	if p == nil || p.phase != phaseWaitData || p.hedged {
		return
	}
	alt := p.nextHolder()
	if alt == nil {
		return
	}
	p.hedged = true
	p.tried = append(p.tried, alt.holder)
	h.collector.aux.HedgedRetrieves++
	if a := h.audit(); a != nil {
		a.HedgeIssued(h.k.Now(), h.id, p.seq, alt.holder)
	}
	h.sendRetrieve(p, *alt)
}

// serverRescueFired is the rescue-timer body: it charges the failed
// exchange to the breaker, then walks deadline → caps → re-send, where
// the re-send re-enters the breaker gate (an exchange that just tripped
// it degrades instead of sending).
func (h *Host) serverRescueFired(p *pendingRequest) {
	if h.breaker != nil {
		h.breaker.Failure(h.k.Now())
	}
	if h.deadlineExpired(p) {
		h.failDeadline(p)
		return
	}
	if !h.allowRetry(p, p.serverAttempts, h.cfg.Resilience.ServerRetries) {
		h.collector.aux.RescueFailures++
		p.cause = "rescue-exhausted"
		h.complete(OutcomeFailure)
		return
	}
	p.serverAttempts++
	h.collector.aux.ServerRescues++
	h.spendRetryBudget(p, "server-rescue")
	if p.phase == phaseWaitServer {
		h.sendPull(h.k.Now())
	} else {
		h.validateWithServer()
	}
}
