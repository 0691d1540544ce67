package audit

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// bareAuditor builds an auditor with no simulation behind it, for driving
// the resilience sink methods directly.
func bareAuditor() *Auditor {
	a := &Auditor{
		open:      make(map[reqKey]workload.ItemID),
		contracts: make(map[contractKey]contract),
		outcomes:  make(map[client.Outcome]uint64),
		causes:    make(map[string]uint64),
		breakers:  make(map[network.NodeID]resilience.State),
		budgets:   make(map[reqKey]int),
		spends:    make(map[string]uint64),
	}
	a.recovery = newRecoveryTracker(0, nil, a.violate)
	return a
}

// TestBreakerTransitionLegality drives the breaker-state-machine invariant
// directly: the four legal edges pass, an illegal edge and a transition
// departing from a state other than the last observed one are flagged.
func TestBreakerTransitionLegality(t *testing.T) {
	a := bareAuditor()
	legal := []struct{ from, to resilience.State }{
		{resilience.Closed, resilience.Open},
		{resilience.Open, resilience.HalfOpen},
		{resilience.HalfOpen, resilience.Open},
		{resilience.Open, resilience.HalfOpen},
		{resilience.HalfOpen, resilience.Closed},
	}
	for i, e := range legal {
		a.BreakerTransition(time.Duration(i)*time.Second, 3, e.from, e.to, "test")
	}
	if len(a.violations) != 0 {
		t.Fatalf("legal edge sequence produced violations: %v", a.violations)
	}

	// Illegal edge: closed -> half-open.
	a = bareAuditor()
	a.BreakerTransition(time.Second, 3, resilience.Closed, resilience.HalfOpen, "test")
	if len(a.violations) != 1 || a.violations[0].Invariant != "breaker-state-machine" {
		t.Fatalf("illegal edge not flagged: %v", a.violations)
	}

	// The miswired edge the self-test feed plants: open -> closed.
	a = bareAuditor()
	a.BreakerTransition(time.Second, 3, resilience.Closed, resilience.Open, "failure-threshold")
	a.BreakerTransition(2*time.Second, 3, resilience.Open, resilience.Closed, "miswired")
	if len(a.violations) != 1 || a.violations[0].Invariant != "breaker-state-machine" {
		t.Fatalf("miswired open->closed edge not flagged: %v", a.violations)
	}

	// Departing from a state other than the last observed one.
	a = bareAuditor()
	a.BreakerTransition(time.Second, 3, resilience.Closed, resilience.Open, "failure-threshold")
	a.BreakerTransition(2*time.Second, 3, resilience.HalfOpen, resilience.Closed, "probe-succeeded")
	if len(a.violations) != 1 || a.violations[0].Invariant != "breaker-state-machine" {
		t.Fatalf("from-state mismatch not flagged: %v", a.violations)
	}
}

// TestRetryBudgetConservation drives the retry-budget invariant directly:
// unit-step spends within the cap on an open request pass; jumps,
// overspends and spends on requests not in flight are flagged.
func TestRetryBudgetConservation(t *testing.T) {
	a := bareAuditor()
	a.RequestBegan(0, 1, 7, 42)
	a.RetrySpent(time.Second, 1, 7, "retrieve-retry", 1, 4)
	a.RetrySpent(2*time.Second, 1, 7, "server-rescue", 2, 4)
	if len(a.violations) != 0 {
		t.Fatalf("conforming spends produced violations: %v", a.violations)
	}

	// Budget jump: 2 -> 4 skips a unit.
	a.RetrySpent(3*time.Second, 1, 7, "retrieve-retry", 4, 4)
	if len(a.violations) != 1 || a.violations[0].Invariant != "retry-budget" {
		t.Fatalf("budget jump not flagged: %v", a.violations)
	}

	// Overspend past the cap.
	a.RetrySpent(4*time.Second, 1, 7, "retrieve-retry", 5, 4)
	if len(a.violations) != 2 || a.violations[1].Invariant != "retry-budget" {
		t.Fatalf("overspend not flagged: %v", a.violations)
	}

	// Spend on a request that is not in flight.
	a = bareAuditor()
	a.RetrySpent(time.Second, 2, 9, "retrieve-retry", 1, 4)
	if len(a.violations) != 1 || a.violations[0].Invariant != "retry-budget" {
		t.Fatalf("spend on closed request not flagged: %v", a.violations)
	}

	// Hedge on a request that is not in flight.
	a = bareAuditor()
	a.HedgeIssued(time.Second, 2, 9, 5)
	if len(a.violations) != 1 || a.violations[0].Invariant != "retry-budget" {
		t.Fatalf("hedge on closed request not flagged: %v", a.violations)
	}
	if a.hedges != 1 {
		t.Fatalf("hedges = %d, want 1", a.hedges)
	}
}

// TestReconcileCounters drives the Finish reconciliation directly: the
// client's retrieve-retry, server-rescue and breaker-open counters must
// match the spends and →open edges the audit observed, so a spend or an
// open the feed dropped is flagged.
func TestReconcileCounters(t *testing.T) {
	feed := func() *Auditor {
		a := bareAuditor()
		a.RequestBegan(0, 1, 7, 42)
		a.RetrySpent(time.Second, 1, 7, "retrieve-retry", 1, resilience.Unlimited)
		a.RetrySpent(2*time.Second, 1, 7, "server-rescue", 2, resilience.Unlimited)
		a.BreakerTransition(3*time.Second, 1, resilience.Closed, resilience.Open, "failure-threshold")
		return a
	}
	a := feed()
	a.reconcile(4*time.Second, client.AuxCounters{RetrieveRetries: 1, ServerRescues: 1, BreakerOpens: 1})
	if len(a.violations) != 0 {
		t.Fatalf("matching counters produced violations: %v", a.violations)
	}
	for _, tc := range []struct {
		name      string
		aux       client.AuxCounters
		invariant string
	}{
		{"dropped-retrieve-spend", client.AuxCounters{RetrieveRetries: 2, ServerRescues: 1, BreakerOpens: 1}, "retry-budget"},
		{"dropped-rescue-spend", client.AuxCounters{RetrieveRetries: 1, ServerRescues: 2, BreakerOpens: 1}, "retry-budget"},
		{"dropped-open", client.AuxCounters{RetrieveRetries: 1, ServerRescues: 1, BreakerOpens: 2}, "breaker-state-machine"},
	} {
		a := feed()
		a.reconcile(4*time.Second, tc.aux)
		if len(a.violations) != 1 || a.violations[0].Invariant != tc.invariant {
			t.Errorf("%s: want one %s violation, got %v", tc.name, tc.invariant, a.violations)
		}
	}
}

// TestDegradedServeInvariants drives the serve-stale leg of the staleness
// oracle directly: a degraded serve requires an open breaker and a real,
// actually-expired admission contract.
func TestDegradedServeInvariants(t *testing.T) {
	// Legal: breaker open, contract expired.
	a := bareAuditor()
	a.BreakerTransition(time.Second, 1, resilience.Closed, resilience.Open, "failure-threshold")
	a.CopyAdmitted(2*time.Second, 1, 42, 5*time.Second)
	a.DegradedServe(10*time.Second, 1, 42, 2*time.Second, 7*time.Second)
	if len(a.violations) != 0 {
		t.Fatalf("legal degraded serve produced violations: %v", a.violations)
	}
	if a.degradedServes != 1 {
		t.Fatalf("degradedServes = %d, want 1", a.degradedServes)
	}

	// Outside an open-breaker window.
	a = bareAuditor()
	a.CopyAdmitted(2*time.Second, 1, 42, 5*time.Second)
	a.DegradedServe(10*time.Second, 1, 42, 2*time.Second, 7*time.Second)
	if len(a.violations) != 1 || a.violations[0].Invariant != "degraded-serve" {
		t.Fatalf("serve outside open window not flagged: %v", a.violations)
	}

	// No admission contract at all.
	a = bareAuditor()
	a.BreakerTransition(time.Second, 1, resilience.Closed, resilience.Open, "failure-threshold")
	a.DegradedServe(10*time.Second, 1, 42, 2*time.Second, 7*time.Second)
	if len(a.violations) != 1 || a.violations[0].Invariant != "degraded-serve" {
		t.Fatalf("serve without contract not flagged: %v", a.violations)
	}

	// Copy not actually expired: a valid copy must serve as a plain hit.
	a = bareAuditor()
	a.BreakerTransition(time.Second, 1, resilience.Closed, resilience.Open, "failure-threshold")
	a.CopyAdmitted(2*time.Second, 1, 42, 20*time.Second)
	a.DegradedServe(10*time.Second, 1, 42, 2*time.Second, 22*time.Second)
	if len(a.violations) != 1 || a.violations[0].Invariant != "degraded-serve" {
		t.Fatalf("premature degraded serve not flagged: %v", a.violations)
	}
}

// resilientScenarioConfig is auditScenarioConfig with outages dense enough
// to trip the breaker, under the full default resilience policy.
func resilientScenarioConfig(scheme core.Scheme) core.Config {
	cfg := auditScenarioConfig(scheme)
	cfg.MeanInterarrival = 500 * time.Millisecond
	cfg.DataUpdateRate = 20
	cfg.ReviseEvery = 5 * time.Second
	cfg.ServerOutagePeriod = 12 * time.Second
	cfg.ServerOutageDuration = 5 * time.Second
	pol := resilience.DefaultPolicy()
	pol.BreakerOpenFor = 3 * time.Second
	cfg.Resilience = pol
	return cfg
}

// TestResilientAuditedRunIsClean is the end-to-end soundness check of the
// resilience layer: an outage-heavy run of every registered scheme under
// the full policy — budgets, jittered backoff, breaker, hedging,
// serve-stale — must produce zero violations, and the degraded paths must
// actually be exercised somewhere in the matrix.
func TestResilientAuditedRunIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	var degraded, hedges uint64
	for _, scheme := range core.Schemes() {
		s, err := core.New(resilientScenarioConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		a := Attach(s, Config{})
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep := a.Finish(r.Completed)
		if !rep.Clean() {
			for _, v := range rep.Violations {
				t.Logf("%v: %s", scheme, v)
			}
			t.Fatalf("%v: %d violations on a resilient run", scheme, rep.TotalViolations())
		}
		if rep.Begun == 0 || rep.Begun != rep.Ended {
			t.Errorf("%v: begun/ended = %d/%d", scheme, rep.Begun, rep.Ended)
		}
		degraded += rep.DegradedServes
		hedges += rep.Hedges
	}
	if degraded == 0 {
		t.Error("no scheme produced a serve-stale hit under dense outages")
	}
	if hedges == 0 {
		t.Error("no scheme produced a hedged retrieve under dense outages")
	}
}

// TestZeroServerRetriesCompletes pins the zero-cap rule: with both retry
// caps at 0, a lost MSS exchange fails its request at the first rescue
// timeout ("rescue-exhausted") instead of holding the host until the
// safety horizon, so every scheme completes with nothing in flight and a
// clean audit.
func TestZeroServerRetriesCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	for _, scheme := range core.Schemes() {
		cfg := auditScenarioConfig(scheme)
		cfg.CrashMTBF = 0
		cfg.Resilience.RetrieveRetries = 0
		cfg.Resilience.ServerRetries = 0
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := Attach(s, Config{})
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep := a.Finish(r.Completed)
		if !r.Completed || s.OutstandingRequests() != 0 {
			t.Errorf("%v: completed=%v with %d requests in flight at %v", scheme, r.Completed, s.OutstandingRequests(), r.SimTime)
		}
		if !rep.Clean() {
			for _, v := range rep.Violations {
				t.Logf("%v: %s", scheme, v)
			}
			t.Errorf("%v: %d violations with zero retry caps", scheme, rep.TotalViolations())
		}
	}
}

// miswiredFeed is the breaker self-test's mutated event feed: it passes
// every event through to the auditor, except that it rewrites the first
// open→half-open edge into open→closed — the edge a breaker miswired to
// skip its half-open probe would take.
type miswiredFeed struct {
	*Auditor
	rewritten bool
}

// BreakerTransition rewrites the first open→half-open edge.
func (f *miswiredFeed) BreakerTransition(at time.Duration, host network.NodeID, from, to resilience.State, cause string) {
	if !f.rewritten && from == resilience.Open && to == resilience.HalfOpen {
		f.rewritten = true
		to, cause = resilience.Closed, "miswired"
	}
	f.Auditor.BreakerTransition(at, host, from, to, cause)
}

// TestBreakerSelftest runs the outage-heavy scenario with the auditor
// behind a feed that turns the run's first open→half-open edge into
// open→closed. The audit's breaker-state-machine invariant must flag the
// illegal edge; a clean report means the invariant is broken.
func TestBreakerSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	s, err := core.New(resilientScenarioConfig(core.SchemeGroCoca))
	if err != nil {
		t.Fatal(err)
	}
	a := Attach(s, Config{})
	feed := &miswiredFeed{Auditor: a}
	s.Collector().Audit = feed
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !feed.rewritten {
		t.Fatal("the run took no open→half-open edge to rewrite")
	}
	rep := a.Finish(r.Completed)
	caught := 0
	for _, v := range rep.Violations {
		if v.Invariant == "breaker-state-machine" {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("miswired breaker went undetected: no breaker-state-machine violation among %d", rep.TotalViolations())
	}
	t.Logf("miswired breaker caught: %d breaker-state-machine violations", caught)
}

// TestFinalTickOutageCensored pins the censoring semantics for every
// registered scheme: an outage episode the run ends inside — including one
// whose window closes only at the final tick — must land in Censored, never
// in Unrecovered, even with the recovery SLO armed as a hard invariant. The
// outage windows here are long enough that the fleet cannot re-enter the
// recovery band before the run ends, so the tail episode is still open at
// Finish.
func TestFinalTickOutageCensored(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	for _, scheme := range core.Schemes() {
		cfg := auditScenarioConfig(scheme)
		cfg.CrashMTBF = 0 // isolate the outage cause
		cfg.ServerOutagePeriod = 35 * time.Second
		cfg.ServerOutageDuration = 25 * time.Second
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := Attach(s, Config{MaxRecovery: time.Hour})
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		rep := a.Finish(r.Completed)
		var outage *RecoveryStats
		for i := range rep.Recovery {
			if rep.Recovery[i].Cause == "outage" {
				outage = &rep.Recovery[i]
			}
		}
		if outage == nil {
			t.Fatalf("%v: no outage recovery stats despite a scheduled outage", scheme)
		}
		if outage.Censored < 1 {
			t.Errorf("%v: tail outage episode not censored: %+v", scheme, *outage)
		}
		if outage.Unrecovered != 0 {
			t.Errorf("%v: %d episodes misclassified as unrecovered (SLO is 1h): %+v",
				scheme, outage.Unrecovered, *outage)
		}
	}
}
