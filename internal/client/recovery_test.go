package client

import (
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// TestRetrieveRetryAlternateHolder exercises the data-timeout retry: when
// the first chosen holder never delivers, the host re-sends the retrieve
// to another replying peer instead of falling straight back to the MSS.
func TestRetrieveRetryAlternateHolder(t *testing.T) {
	h := newHarness(t, 3, false)
	cfg := testClientConfig(SchemeCOCA)
	cfg.Resilience.RetrieveRetries = 1
	cfg.Resilience.RetryBudget = resilience.Unlimited
	a := h.addHost(1, 0, 0, cfg)
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	c := h.addHost(3, 60, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	// Let both replies arrive (~0.32ms), then evict 9 from the selected
	// provider before the retrieve reaches it (~0.48ms).
	h.run(400 * time.Microsecond)
	if a.cur == nil || a.cur.provider == 0 {
		t.Fatal("no provider selected")
	}
	h.hosts[a.cur.provider].Cache().Remove(9)
	h.run(2 * time.Second)
	if got := h.collector.OutcomeCount(OutcomeGlobalHit); got != 1 {
		t.Fatalf("outcomes = %v, want a global hit via the alternate holder", h.collector.outcomes)
	}
	if got := h.collector.Aux().RetrieveRetries; got != 1 {
		t.Errorf("retrieve retries = %d, want 1", got)
	}
	if a.Cache().Peek(9) == nil {
		t.Error("item not cached after retry")
	}
}

// TestRetrieveRetryExhaustionFallsBackToServer: when every replying holder
// has been tried, the data timeout falls back to the MSS as before.
func TestRetrieveRetryExhaustionFallsBackToServer(t *testing.T) {
	h := newHarness(t, 2, false)
	cfg := testClientConfig(SchemeCOCA)
	cfg.Resilience.RetrieveRetries = 3
	cfg.Resilience.RetryBudget = resilience.Unlimited
	a := h.addHost(1, 0, 0, cfg)
	b := h.addHost(2, 50, 0, testClientConfig(SchemeCOCA))
	if err := b.Preload(9, time.Hour); err != nil {
		t.Fatal(err)
	}
	a.beginRequest(9)
	h.run(400 * time.Microsecond)
	b.Cache().Remove(9)
	h.run(5 * time.Second)
	// Only one holder replied, so no retry is possible: the request must
	// still terminate at the server.
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want server fallback", h.collector.outcomes)
	}
	if got := h.collector.Aux().RetrieveRetries; got != 0 {
		t.Errorf("retrieve retries = %d, want 0 (no alternate holder)", got)
	}
	if h.collector.Aux().PeerTimeouts == 0 {
		t.Error("no peer timeout recorded")
	}
}

// TestServerRescueAfterDownlinkLoss reproduces the lost-reply scenario of
// satellite 3: the host goes off the air while its server request is in
// flight, the reply is dropped on the downlink, and the rescue timer
// re-sends the exchange until the host is back to receive it.
func TestServerRescueAfterDownlinkLoss(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.Resilience.ServerRetries = 3
	cfg.Resilience.RetryBudget = resilience.Unlimited
	cfg.ServerRescueFactor = 3
	a := h.addHost(1, 0, 0, cfg)
	a.beginRequest(7)
	// Drop off the air before the reply (~18ms) lands; the rescue timer
	// (floor 200ms) re-sends while still down, then again once back up.
	h.run(time.Millisecond)
	a.connected = false
	h.run(300 * time.Millisecond)
	if got := h.link.Drops().DownlinkDisconnected; got < 2 {
		t.Fatalf("downlink drops = %d, want >= 2 (original + first rescue)", got)
	}
	if a.cur == nil {
		t.Fatal("request abandoned while host was down")
	}
	a.connected = true
	h.run(2 * time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want recovered server request", h.collector.outcomes)
	}
	if got := h.collector.Aux().ServerRescues; got < 2 {
		t.Errorf("server rescues = %d, want >= 2", got)
	}
	if got := h.collector.Aux().RescueFailures; got != 0 {
		t.Errorf("rescue failures = %d, want 0", got)
	}
	if a.Cache().Peek(7) == nil {
		t.Error("item not cached after rescue")
	}
}

// TestServerRescueExhaustionFailsRequest: a host that never comes back in
// time sees its request terminated as a failure, not stalled forever.
func TestServerRescueExhaustionFailsRequest(t *testing.T) {
	h := newHarness(t, 1, false)
	cfg := testClientConfig(SchemeSC)
	cfg.Resilience.ServerRetries = 2
	cfg.Resilience.RetryBudget = resilience.Unlimited
	cfg.ServerRescueFactor = 3
	a := h.addHost(1, 0, 0, cfg)
	a.beginRequest(7)
	h.run(time.Millisecond)
	a.connected = false
	h.run(time.Minute)
	if a.cur != nil {
		t.Fatal("request still outstanding after rescue exhaustion")
	}
	if got := h.collector.OutcomeCount(OutcomeFailure); got != 1 {
		t.Fatalf("outcomes = %v, want a failure", h.collector.outcomes)
	}
	if got := h.collector.Aux().RescueFailures; got != 1 {
		t.Errorf("rescue failures = %d, want 1", got)
	}
	if got := h.collector.Aux().ServerRescues; got != 2 {
		t.Errorf("server rescues = %d, want 2", got)
	}
}

// TestCrashAbortsInFlightRequestAndRecovers drives the churn model
// directly: a crash mid-request records an access failure, clears the
// in-flight state, and the host resumes service after its downtime.
func TestCrashAbortsInFlightRequestAndRecovers(t *testing.T) {
	h := newHarness(t, 1, false)
	plan, err := network.NewFaultPlan(network.FaultPlanConfig{
		CrashMTBF:    24 * time.Hour, // no spontaneous crashes within the test
		CrashDownMin: 2 * time.Second,
		CrashDownMax: 5 * time.Second,
	}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	a := h.addHost(1, 0, 0, testClientConfig(SchemeSC))
	a.SetFaultPlan(plan)
	a.beginRequest(7)
	h.run(time.Millisecond)
	a.crash()
	if a.Outstanding() {
		t.Error("crash left the request outstanding")
	}
	if a.Connected() {
		t.Error("crashed host still connected")
	}
	if got := h.collector.OutcomeCount(OutcomeFailure); got != 1 {
		t.Fatalf("outcomes = %v, want the aborted request as a failure", h.collector.outcomes)
	}
	aux := h.collector.Aux()
	if aux.Crashes != 1 || aux.CrashAborts != 1 {
		t.Errorf("crashes=%d aborts=%d, want 1/1", aux.Crashes, aux.CrashAborts)
	}
	// Past the maximum downtime the host is back and serviceable.
	h.run(6 * time.Second)
	if !a.Connected() {
		t.Fatal("host did not recover from crash")
	}
	a.beginRequest(8)
	h.run(2 * time.Second)
	if got := h.collector.OutcomeCount(OutcomeServerRequest); got != 1 {
		t.Fatalf("outcomes = %v, want a completed request after recovery", h.collector.outcomes)
	}
	if a.Cache().Peek(8) == nil {
		t.Error("post-recovery request not cached")
	}
}
