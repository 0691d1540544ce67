package resilience

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPolicyValidate is the satellite hardening table: negative caps and
// budgets, negative deadlines and out-of-range jitter must be rejected
// with a recognizable error, and legal policies must pass.
func TestPolicyValidate(t *testing.T) {
	ok := DefaultPolicy()
	cases := []struct {
		name    string
		mutate  func(*Policy)
		wantErr string // substring; "" means valid
	}{
		{"zero-value-disabled", func(p *Policy) { *p = Policy{} }, ""},
		{"default-enabled", func(p *Policy) {}, ""},
		{"legacy", func(p *Policy) { *p = Legacy() }, ""},
		{"disabled-ranges-still-checked", func(p *Policy) { *p = Policy{RetryBudget: -1} }, "retry budget"},
		{"negative-retrieve-cap", func(p *Policy) { p.RetrieveRetries = -1 }, "retrieve retry cap"},
		{"negative-server-cap", func(p *Policy) { p.ServerRetries = -1 }, "server retry cap"},
		{"zero-caps-ok", func(p *Policy) { p.RetrieveRetries, p.ServerRetries = 0, 0 }, ""},
		{"negative-budget", func(p *Policy) { p.RetryBudget = -3 }, "retry budget"},
		{"zero-budget-ok", func(p *Policy) { p.RetryBudget = 0 }, ""},
		{"zero-deadline", func(p *Policy) { p.Deadline = 0 }, ""},
		{"negative-deadline", func(p *Policy) { p.Deadline = -time.Second }, "negative deadline"},
		{"jitter-above-one", func(p *Policy) { p.Jitter = 1.5 }, "jitter"},
		{"negative-jitter", func(p *Policy) { p.Jitter = -0.1 }, "jitter"},
		{"jitter-one-ok", func(p *Policy) { p.Jitter = 1 }, ""},
		{"backoff-below-one", func(p *Policy) { p.BackoffFactor = 0.5 }, "backoff factor"},
		{"backoff-negative", func(p *Policy) { p.BackoffFactor = -2 }, "backoff factor"},
		{"backoff-zero-defaults", func(p *Policy) { p.BackoffFactor = 0 }, ""},
		{"negative-breaker-threshold", func(p *Policy) { p.BreakerFailures = -1 }, "breaker failure threshold"},
		{"breaker-without-window", func(p *Policy) { p.BreakerOpenFor = 0 }, "open window"},
		{"negative-window", func(p *Policy) { p.BreakerOpenFor = -time.Second }, "open window"},
		{"hedge-above-one", func(p *Policy) { p.HedgeAfter = 1.01 }, "hedge fraction"},
		{"negative-hedge", func(p *Policy) { p.HedgeAfter = -0.5 }, "hedge fraction"},
		{"serve-stale-needs-breaker", func(p *Policy) { p.BreakerFailures = 0; p.BreakerOpenFor = 0 }, "serve-stale requires the breaker"},
		{"negative-stale-age", func(p *Policy) { p.ServeStaleMaxAge = -time.Minute }, "serve-stale max age"},
		{"no-breaker-no-stale-ok", func(p *Policy) {
			p.BreakerFailures, p.BreakerOpenFor, p.ServeStale = 0, 0, false
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ok
			tc.mutate(&p)
			err := p.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestBackoff pins the backoff arithmetic: pure exponential without
// jitter, the documented ±Jitter spread with it, the millisecond floor,
// and Legacy's equality with the doubling shift.
func TestBackoff(t *testing.T) {
	p := Policy{}
	base := 100 * time.Millisecond
	for attempt, want := range []time.Duration{base, 2 * base, 4 * base, 8 * base} {
		if got := p.Backoff(base, attempt, 0.99); got != want {
			t.Fatalf("attempt %d: got %v want %v (jitter off must ignore u)", attempt, got, want)
		}
	}
	p.BackoffFactor = 3
	if got := p.Backoff(base, 2, 0); got != 9*base {
		t.Fatalf("factor 3 attempt 2: got %v want %v", got, 9*base)
	}
	p = Policy{Jitter: 0.5}
	if got := p.Backoff(base, 0, 0); got != base/2 {
		t.Fatalf("u=0 with jitter 0.5: got %v want %v", got, base/2)
	}
	if got := p.Backoff(base, 0, 0.5); got != base {
		t.Fatalf("u=0.5 with jitter 0.5: got %v want %v", got, base)
	}
	if got := (Policy{}).Backoff(time.Microsecond, 0, 0); got != time.Millisecond {
		t.Fatalf("floor: got %v want 1ms", got)
	}
	// Legacy's backoff is the doubling shift exactly, for every base the
	// client uses (the 10 ms data-timeout and 200 ms rescue floors, and
	// odd nanosecond counts above them) and any attempt a cap reaches.
	for _, b := range []time.Duration{10 * time.Millisecond, 200 * time.Millisecond, 987_654_321} {
		for attempt := 0; attempt <= 16; attempt++ {
			if got, want := Legacy().Backoff(b, attempt, 0.73), b<<uint(attempt); got != want {
				t.Fatalf("legacy base %v attempt %d: got %v want %v", b, attempt, got, want)
			}
		}
	}
}

// TestBreakerStateMachine walks the legal edge set and the probe
// discipline.
func TestBreakerStateMachine(t *testing.T) {
	pol := DefaultPolicy()
	pol.BreakerFailures = 2
	pol.BreakerOpenFor = 5 * time.Second
	var edges []string
	b := NewBreaker(pol, func(at time.Duration, from, to State, cause string) {
		edges = append(edges, fmt.Sprintf("%v->%v:%s", from, to, cause))
	})
	now := time.Duration(0)
	if !b.Allow(now) || b.Current() != Closed {
		t.Fatal("fresh breaker must be closed and allowing")
	}
	b.Failure(now)
	if b.Current() != Closed {
		t.Fatal("one failure below the threshold must not trip")
	}
	b.Success(now)
	b.Failure(now)
	if b.Current() != Closed {
		t.Fatal("success must reset the consecutive streak")
	}
	b.Failure(now)
	b.Failure(now)
	if b.Current() != Open || b.Opens() != 1 {
		t.Fatalf("two consecutive failures must open; state %v opens %d", b.Current(), b.Opens())
	}
	if b.Allow(now + 4*time.Second) {
		t.Fatal("open window must reject exchanges")
	}
	if !b.Allow(now+5*time.Second) || b.Current() != HalfOpen {
		t.Fatalf("elapsed window must admit a half-open probe; state %v", b.Current())
	}
	b.BeginProbe(now + 5*time.Second)
	if b.Allow(now + 5*time.Second) {
		t.Fatal("half-open must admit exactly one probe")
	}
	b.Failure(now + 6*time.Second)
	if b.Current() != Open || b.Opens() != 2 {
		t.Fatalf("failed probe must re-open; state %v opens %d", b.Current(), b.Opens())
	}
	if !b.Allow(now+11*time.Second) || b.Current() != HalfOpen {
		t.Fatal("second window must re-admit a probe")
	}
	b.BeginProbe(now + 11*time.Second)
	b.Success(now + 12*time.Second)
	if b.Current() != Closed {
		t.Fatalf("successful probe must close; state %v", b.Current())
	}
	want := []string{
		"closed->open:failure-threshold",
		"open->half-open:open-window-elapsed",
		"half-open->open:probe-failed",
		"open->half-open:open-window-elapsed",
		"half-open->closed:probe-succeeded",
	}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("edge trace:\n got %v\nwant %v", edges, want)
	}
}

// TestBreakerAbortProbe frees the probe slot without judging the link.
func TestBreakerAbortProbe(t *testing.T) {
	pol := DefaultPolicy()
	pol.BreakerFailures = 1
	b := NewBreaker(pol, nil)
	b.Failure(0)
	if !b.Allow(pol.BreakerOpenFor) {
		t.Fatal("window elapsed: probe must be admitted")
	}
	b.BeginProbe(pol.BreakerOpenFor)
	b.AbortProbe(pol.BreakerOpenFor + time.Second)
	if b.Current() != HalfOpen {
		t.Fatalf("aborted probe must stay half-open; state %v", b.Current())
	}
	if !b.Allow(pol.BreakerOpenFor + time.Second) {
		t.Fatal("aborted probe must free the slot for the next exchange")
	}
}

// TestNewBreakerDisabled returns nil for policies without a breaker.
func TestNewBreakerDisabled(t *testing.T) {
	if NewBreaker(Policy{}, nil) != nil {
		t.Fatal("zero policy must not build a breaker")
	}
	p := DefaultPolicy()
	p.BreakerFailures = 0
	p.ServeStale = false
	if NewBreaker(p, nil) != nil {
		t.Fatal("threshold 0 must not build a breaker")
	}
}
