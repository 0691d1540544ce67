// Package resilience is the deterministic failure-handling policy engine
// of the client: per-mechanism retry caps under a per-request retry
// budget, exponential backoff with seeded jitter, deadline propagation, a
// per-host circuit breaker on the MSS server link (closed/open/half-open
// with probe requests), hedged peer retrieval, and a serve-stale degraded
// mode answering from cache while the breaker is open.
//
// Everything here is pure policy arithmetic plus an explicit state
// machine: no timers, no goroutines, no wall clock, no randomness of its
// own. Timing comes from the simulation kernel via the caller, and jitter
// is injected as a caller-drawn uniform variate (the client draws it from
// a dedicated per-host kernel RNG stream, derived only when Jitter > 0 —
// see DESIGN.md "Resilience policies"). Legacy() is the hardened paper
// protocol the simulator runs by default; DefaultPolicy() is the full
// engine behind the CLIs' -resilience flag.
package resilience

import (
	"fmt"
	"math"
	"time"
)

// Unlimited is a cap that never binds.
const Unlimited = math.MaxInt

// Policy is the per-host recovery configuration. Each mechanism is on
// when its own field is non-zero; the caps and the budget always apply,
// so a re-send needs both its mechanism's count under that mechanism's
// cap and the request's total spends under RetryBudget.
type Policy struct {
	// RetrieveRetries caps the alternate-holder retrieves re-sent after
	// data timeouts; exhausted, the request falls back to the MSS.
	RetrieveRetries int
	// ServerRetries caps the re-sends of a lost MSS exchange. The rescue
	// timer is always armed: with a cap of 0 its first expiry fails the
	// request as "rescue-exhausted".
	ServerRetries int
	// RetryBudget is the unified per-request retry budget: alternate-holder
	// retrieve retries and MSS rescue re-sends draw from the same pool.
	// Zero allows no retries at all.
	RetryBudget int
	// BackoffFactor multiplies the backoff per attempt; zero selects 2
	// (doubling). Values below 1 are invalid.
	BackoffFactor float64
	// Jitter spreads each backoff uniformly over ±Jitter of its nominal
	// value, using a variate drawn from the host's dedicated RNG stream.
	// Must lie in [0, 1]; zero disables jitter (and the draw).
	Jitter float64
	// Deadline is the per-request wall: once a request has been in flight
	// this long, the next timer expiry fails it with cause
	// "deadline-exceeded". Every armed timeout is capped to the remaining
	// deadline (deadline propagation). Zero means no deadline.
	Deadline time.Duration

	// BreakerFailures is the consecutive-failure threshold tripping the
	// per-host MSS-link breaker from closed to open; zero disables the
	// breaker entirely.
	BreakerFailures int
	// BreakerOpenFor is the open window: after it elapses the breaker
	// admits a single half-open probe exchange. Must be positive when the
	// breaker is enabled.
	BreakerOpenFor time.Duration

	// HedgeAfter arms hedged retrieval: after this fraction of the data
	// timeout without the data, the retrieve is re-issued to the next-best
	// reply holder without cancelling the first. Must lie in [0, 1]; zero
	// disables hedging.
	HedgeAfter float64

	// ServeStale enables the degraded mode: while the breaker is open, a
	// request that would need the MSS is answered from an expired cached
	// copy instead (tagged for the audit staleness oracle). Requires the
	// breaker.
	ServeStale bool
	// ServeStaleMaxAge bounds how far past its contract expiry a copy may
	// still be served stale; zero serves any expired copy.
	ServeStaleMaxAge time.Duration
}

// Legacy returns the hardened paper protocol: one alternate-holder
// retrieve retry and three MSS rescue re-sends, each timeout doubling per
// attempt, with no shared budget, jitter, deadline, breaker, hedging or
// serve-stale. It draws no randomness.
func Legacy() Policy {
	return Policy{
		RetrieveRetries: 1,
		ServerRetries:   3,
		RetryBudget:     Unlimited,
		BackoffFactor:   2,
	}
}

// DefaultPolicy returns the full engine the CLIs install with
// -resilience: a four-retry budget shared by both mechanisms with
// doubling jittered backoff, a 30-second request deadline, a 3-failure
// breaker with an 8-second open window, hedging at half the data
// timeout, and bounded serve-stale.
func DefaultPolicy() Policy {
	return Policy{
		RetrieveRetries:  Unlimited,
		ServerRetries:    Unlimited,
		RetryBudget:      4,
		BackoffFactor:    2,
		Jitter:           0.2,
		Deadline:         30 * time.Second,
		BreakerFailures:  3,
		BreakerOpenFor:   8 * time.Second,
		HedgeAfter:       0.5,
		ServeStale:       true,
		ServeStaleMaxAge: 2 * time.Minute,
	}
}

// Validate rejects unusable policies: out-of-range values, and the
// presence constraints (breaker window, serve-stale's breaker) of the
// mechanisms that are on.
func (p Policy) Validate() error {
	if p.RetrieveRetries < 0 {
		return fmt.Errorf("resilience: retrieve retry cap %d must be non-negative", p.RetrieveRetries)
	}
	if p.ServerRetries < 0 {
		return fmt.Errorf("resilience: server retry cap %d must be non-negative", p.ServerRetries)
	}
	if p.RetryBudget < 0 {
		return fmt.Errorf("resilience: retry budget %d must be non-negative", p.RetryBudget)
	}
	if p.BackoffFactor < 0 || (p.BackoffFactor > 0 && p.BackoffFactor < 1) {
		return fmt.Errorf("resilience: backoff factor %v must be at least 1 (0 selects the default 2)", p.BackoffFactor)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("resilience: jitter %v outside [0, 1]", p.Jitter)
	}
	if p.Deadline < 0 {
		return fmt.Errorf("resilience: negative deadline %v", p.Deadline)
	}
	if p.BreakerFailures < 0 {
		return fmt.Errorf("resilience: breaker failure threshold %d must be non-negative", p.BreakerFailures)
	}
	if p.BreakerOpenFor < 0 {
		return fmt.Errorf("resilience: negative breaker open window %v", p.BreakerOpenFor)
	}
	if p.HedgeAfter < 0 || p.HedgeAfter > 1 {
		return fmt.Errorf("resilience: hedge fraction %v outside [0, 1]", p.HedgeAfter)
	}
	if p.ServeStaleMaxAge < 0 {
		return fmt.Errorf("resilience: negative serve-stale max age %v", p.ServeStaleMaxAge)
	}
	if p.BreakerFailures > 0 && p.BreakerOpenFor == 0 {
		return fmt.Errorf("resilience: breaker open window must be positive when the breaker is enabled")
	}
	if p.ServeStale && p.BreakerFailures == 0 {
		return fmt.Errorf("resilience: serve-stale requires the breaker (it only serves during open windows)")
	}
	return nil
}

// factor returns the effective backoff multiplier.
func (p Policy) factor() float64 {
	if p.BackoffFactor == 0 {
		return 2
	}
	return p.BackoffFactor
}

// Backoff returns the deterministic backoff for the given attempt:
// base·factor^attempt, spread over ±Jitter by the caller-drawn uniform
// variate u ∈ [0, 1), floored at one millisecond. With Jitter zero, u is
// ignored and the result is the pure exponential.
func (p Policy) Backoff(base time.Duration, attempt int, u float64) time.Duration {
	d := float64(base)
	f := p.factor()
	for i := 0; i < attempt; i++ {
		d *= f
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter + 2*p.Jitter*u
	}
	if d < float64(time.Millisecond) {
		d = float64(time.Millisecond)
	}
	return time.Duration(d)
}

// State is the circuit breaker's position: requests flow while Closed,
// are rejected while Open, and exactly one probe is admitted in HalfOpen.
type State int

// The breaker states. Legal transitions are Closed→Open (failure
// threshold), Open→HalfOpen (open window elapsed), HalfOpen→Closed
// (probe succeeded) and HalfOpen→Open (probe failed) — the audit's
// breaker-state-machine invariant rejects every other edge.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is the per-host circuit breaker on the MSS server link. It is
// driven entirely by the caller's kernel-time observations (Allow before
// each exchange, Success/Failure after), so its transitions are
// deterministic and need no timers of their own: the open window expires
// lazily at the next Allow.
type Breaker struct {
	threshold int
	openFor   time.Duration

	state    State
	consec   int
	openedAt time.Duration
	probing  bool
	opens    uint64

	// onTransition observes every state edge (for the audit feed and the
	// breaker counters); it is wiring, not state.
	onTransition func(at time.Duration, from, to State, cause string)
}

// NewBreaker builds a breaker for the policy, or returns nil when the
// policy does not enable one. onTransition, if non-nil, observes every
// state edge.
func NewBreaker(p Policy, onTransition func(at time.Duration, from, to State, cause string)) *Breaker {
	if p.BreakerFailures <= 0 {
		return nil
	}
	return &Breaker{
		threshold:    p.BreakerFailures,
		openFor:      p.BreakerOpenFor,
		onTransition: onTransition,
	}
}

// transition moves the state machine and notifies the observer.
func (b *Breaker) transition(at time.Duration, to State, cause string) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if to == Open {
		b.opens++
		b.openedAt = at
		b.probing = false
	}
	if b.onTransition != nil {
		b.onTransition(at, from, to, cause)
	}
}

// Allow reports whether a server exchange may proceed at now. An open
// window that has elapsed moves to half-open here (lazily), which then
// admits a single probe until BeginProbe marks it in flight.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.state {
	case Open:
		if now-b.openedAt < b.openFor {
			return false
		}
		b.transition(now, HalfOpen, "open-window-elapsed")
		return true
	case HalfOpen:
		return !b.probing
	default:
		return true
	}
}

// Current returns the breaker's state without side effects.
func (b *Breaker) Current() State { return b.state }

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() uint64 { return b.opens }

// BeginProbe marks the half-open probe exchange as in flight, so Allow
// rejects further exchanges until the probe resolves.
func (b *Breaker) BeginProbe(now time.Duration) {
	if b.state == HalfOpen {
		b.probing = true
	}
}

// Success records a completed server exchange: the failure streak resets,
// and a half-open probe closes the breaker.
func (b *Breaker) Success(now time.Duration) {
	b.consec = 0
	if b.state == HalfOpen {
		b.probing = false
		b.transition(now, Closed, "probe-succeeded")
	}
}

// Failure records a failed (timed-out) server exchange: a half-open probe
// re-opens the breaker, and a closed breaker trips once the consecutive
// streak reaches the threshold. Failures while already open (exchanges
// armed before the trip) leave the window untouched.
func (b *Breaker) Failure(now time.Duration) {
	switch b.state {
	case Closed:
		b.consec++
		if b.consec >= b.threshold {
			b.transition(now, Open, "failure-threshold")
		}
	case HalfOpen:
		b.probing = false
		b.transition(now, Open, "probe-failed")
	}
}

// AbortProbe resolves a half-open probe whose carrying request died
// without a link-level verdict (e.g. a host crash): the probe slot is
// freed without judging the link, so the next exchange probes again.
func (b *Breaker) AbortProbe(now time.Duration) {
	if b.state == HalfOpen {
		b.probing = false
	}
}
