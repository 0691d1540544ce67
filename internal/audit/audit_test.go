package audit

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/workload"
)

// newBare builds an auditor without a simulation behind it, for unit tests
// that drive the sink methods directly.
func newBare() *Auditor {
	a := &Auditor{
		open:      make(map[reqKey]workload.ItemID),
		contracts: make(map[contractKey]contract),
		outcomes:  make(map[client.Outcome]uint64),
		causes:    make(map[string]uint64),
	}
	a.recovery = newRecoveryTracker(0, nil, a.violate)
	return a
}

// smallTracker is a recovery tracker whose rolling window holds four
// completions, so a unit test fills it in a few observations.
func smallTracker(maxRecovery time.Duration, violate func(string, time.Duration, network.NodeID, string)) *recoveryTracker {
	tr := newRecoveryTracker(maxRecovery, nil, violate)
	tr.lat, tr.hit = make([]time.Duration, 4), make([]bool, 4)
	return tr
}

func violationInvariants(r Report) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, v.Invariant)
	}
	return out
}

func TestConservationCleanPath(t *testing.T) {
	a := newBare()
	a.RequestBegan(1*time.Second, 3, 1, 42)
	a.RequestEnded(2*time.Second, 3, 1, 42, client.OutcomeLocalHit, "", time.Second)
	r := a.Finish(true)
	if !r.Clean() {
		t.Fatalf("clean begin/end pair produced violations: %v", r.Violations)
	}
	if r.Begun != 1 || r.Ended != 1 {
		t.Errorf("begun/ended = %d/%d, want 1/1", r.Begun, r.Ended)
	}
}

func TestConservationDuplicateBegin(t *testing.T) {
	a := newBare()
	a.RequestBegan(1*time.Second, 3, 1, 42)
	a.RequestBegan(2*time.Second, 3, 1, 7)
	r := a.Finish(false)
	found := false
	for _, v := range r.Violations {
		if v.Invariant == "request-conservation" && strings.Contains(v.Detail, "began twice") {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate begin not flagged: %v", r.Violations)
	}
}

func TestConservationEndWithoutBegin(t *testing.T) {
	a := newBare()
	a.RequestEnded(time.Second, 5, 9, 42, client.OutcomeFailure, "crash-abort", time.Second)
	r := a.Finish(true)
	if got := violationInvariants(r); len(got) != 1 || got[0] != "request-conservation" {
		t.Fatalf("end-without-begin violations = %v, want one request-conservation", got)
	}
	if len(r.Causes) != 1 || r.Causes[0].Cause != "crash-abort" || r.Causes[0].Count != 1 {
		t.Errorf("causes = %v, want crash-abort×1", r.Causes)
	}
}

func TestConservationLeftoverOpenRequest(t *testing.T) {
	a := newBare()
	a.RequestBegan(time.Second, 2, 1, 42)
	if r := a.Finish(true); len(r.Violations) != 1 || r.Violations[0].Invariant != "request-conservation" {
		t.Fatalf("leftover open request on completed run = %v, want request-conservation", r.Violations)
	}
	b := newBare()
	b.RequestBegan(time.Second, 2, 1, 42)
	if r := b.Finish(false); len(r.Violations) != 1 || r.Violations[0].Invariant != "horizon-stall" {
		t.Fatalf("leftover open request on expired run = %v, want horizon-stall", r.Violations)
	}
}

func TestStalenessOracle(t *testing.T) {
	const host, item = 4, 42
	base := 10 * time.Second
	ttl := 5 * time.Second
	cases := []struct {
		name string
		feed func(a *Auditor)
		want []string
	}{
		{
			name: "clean hit within contract",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, host, item, ttl)
				a.HitServed(base+time.Second, host, host, item, client.OutcomeLocalHit, base, base+ttl)
			},
			want: nil,
		},
		{
			name: "hit with no contract",
			feed: func(a *Auditor) {
				a.HitServed(base, host, host, item, client.OutcomeLocalHit, base, base+ttl)
			},
			want: []string{"staleness-oracle"},
		},
		{
			name: "retrieval time mutated",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, host, item, ttl)
				a.HitServed(base+time.Second, host, host, item, client.OutcomeLocalHit, base+time.Millisecond, base+ttl)
			},
			want: []string{"staleness-oracle"},
		},
		{
			name: "ttl inflated beyond contract",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, host, item, ttl)
				a.HitServed(base+time.Second, host, host, item, client.OutcomeLocalHit, base, base+ttl+time.Hour)
			},
			want: []string{"ttl-inflation"},
		},
		{
			name: "served after expiry",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, host, item, ttl)
				a.HitServed(base+ttl+time.Second, host, host, item, client.OutcomeLocalHit, base, base+ttl)
			},
			want: []string{"expired-serve"},
		},
		{
			name: "global hit with inflated provider contract",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, 7, item, ttl)
				a.HitServed(base+time.Second, host, 7, item, client.OutcomeGlobalHit, base, base+ttl+time.Hour)
			},
			want: []string{"ttl-inflation"},
		},
		{
			name: "global hit after provider refresh is not pinned",
			feed: func(a *Auditor) {
				a.CopyAdmitted(base, 7, item, ttl)
				// Retrieval time differs: the provider refreshed between the
				// reply and this delivery, so the claim cannot be checked.
				a.HitServed(base+time.Second, host, 7, item, client.OutcomeGlobalHit, base+2*time.Second, base+ttl+time.Hour)
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newBare()
			tc.feed(a)
			if got := violationInvariants(a.report(true)); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestViolationCapAndRepro(t *testing.T) {
	a := newBare()
	a.cfg.Repro = "go run ./cmd/grococa-chaos -seed 1"
	for i := 0; i < maxViolations+7; i++ {
		a.HitServed(time.Second, 1, 1, workload.ItemID(i), client.OutcomeLocalHit, 0, time.Second)
	}
	r := a.report(true)
	if len(r.Violations) != maxViolations || r.DroppedViolations != 7 {
		t.Fatalf("recorded/dropped = %d/%d, want %d/7", len(r.Violations), r.DroppedViolations, maxViolations)
	}
	if r.TotalViolations() != maxViolations+7 {
		t.Errorf("TotalViolations = %d, want %d", r.TotalViolations(), maxViolations+7)
	}
	if !strings.Contains(r.Violations[0].String(), "repro: go run ./cmd/grococa-chaos -seed 1") {
		t.Errorf("violation line misses repro command: %s", r.Violations[0])
	}
}

func TestRecoveryTrackerEpisodes(t *testing.T) {
	var violations []string
	tr := smallTracker(time.Minute, func(inv string, _ time.Duration, _ network.NodeID, detail string) {
		violations = append(violations, inv+": "+detail)
	})
	// Fill the window with a healthy baseline: 10ms latency, all hits.
	for i := 1; i <= 4; i++ {
		tr.observe(time.Duration(i)*time.Second, 10*time.Millisecond, true)
	}
	tr.onFault(5*time.Second, "crash")
	if !tr.baselineSet {
		t.Fatal("baseline not snapshotted at first fault")
	}
	// Degrade: misses at 10× latency push the rolling window out of band.
	for i := 6; i <= 9; i++ {
		tr.observe(time.Duration(i)*time.Second, 100*time.Millisecond, false)
	}
	// Recover: healthy completions pull the window back.
	for i := 10; i <= 13; i++ {
		tr.observe(time.Duration(i)*time.Second, 10*time.Millisecond, true)
	}
	tr.finish(14 * time.Second)
	stats := tr.stats()
	if len(stats) != 1 || stats[0].Cause != "crash" {
		t.Fatalf("stats = %+v, want one crash entry", stats)
	}
	s := stats[0]
	if s.Episodes != 1 || s.Recovered != 1 || s.Unrecovered != 0 {
		t.Fatalf("episodes/recovered/unrecovered = %d/%d/%d, want 1/1/0", s.Episodes, s.Recovered, s.Unrecovered)
	}
	if s.MaxRecovery < 5*time.Second || s.MaxRecovery > 9*time.Second {
		t.Errorf("recovery took %v, want within (5s, 9s]", s.MaxRecovery)
	}
	if len(violations) != 0 {
		t.Errorf("unexpected violations: %v", violations)
	}
}

func TestRecoveryTrackerSLOViolation(t *testing.T) {
	var violations []string
	tr := smallTracker(3*time.Second, func(inv string, _ time.Duration, _ network.NodeID, _ string) {
		violations = append(violations, inv)
	})
	for i := 1; i <= 4; i++ {
		tr.observe(time.Duration(i)*time.Second, 10*time.Millisecond, true)
	}
	tr.onFault(5*time.Second, "crash")
	// Never recovers: degraded past the 3s SLO.
	for i := 6; i <= 12; i++ {
		tr.observe(time.Duration(i)*time.Second, 100*time.Millisecond, false)
	}
	if len(violations) != 1 || violations[0] != "recovery-slo" {
		t.Fatalf("violations = %v, want one recovery-slo", violations)
	}
	stats := tr.stats()
	if len(stats) != 1 || stats[0].Unrecovered != 1 {
		t.Fatalf("stats = %+v, want one unrecovered crash episode", stats)
	}
}

// TestRecoveryTrackerCensoredAtEnd: an episode still degraded when the run
// ends is censored — the run finished before recovery could be observed —
// rather than counted as an SLO failure.
func TestRecoveryTrackerCensoredAtEnd(t *testing.T) {
	tr := smallTracker(0, func(inv string, _ time.Duration, _ network.NodeID, _ string) {
		t.Errorf("unexpected violation %s", inv)
	})
	for i := 1; i <= 4; i++ {
		tr.observe(time.Duration(i)*time.Second, 10*time.Millisecond, true)
	}
	tr.onFault(5*time.Second, "crash")
	// Two degraded completions, then the run ends mid-episode.
	tr.observe(6*time.Second, 100*time.Millisecond, false)
	tr.observe(7*time.Second, 100*time.Millisecond, false)
	tr.finish(8 * time.Second)
	stats := tr.stats()
	if len(stats) != 1 || stats[0].Cause != "crash" {
		t.Fatalf("stats = %+v, want one crash entry", stats)
	}
	s := stats[0]
	if s.Episodes != 1 || s.Recovered != 0 || s.Unrecovered != 0 || s.Censored != 1 {
		t.Fatalf("episodes/recovered/unrecovered/censored = %d/%d/%d/%d, want 1/0/0/1",
			s.Episodes, s.Recovered, s.Unrecovered, s.Censored)
	}
}

// TestRecoveryTrackerTailOutage: an outage window that closes after the
// last request completion still opens an episode — finish advances the
// schedule before censoring — so tail outages are not silently dropped.
func TestRecoveryTrackerTailOutage(t *testing.T) {
	tr := smallTracker(0, func(string, time.Duration, network.NodeID, string) {})
	tr.firstOutageAt = 10 * time.Second
	tr.nextOutageEnd = 12 * time.Second
	tr.outagePeriod = 10 * time.Second
	// Healthy completions fill the window and carry past the first outage:
	// its episode opens at the 12s boundary and recovers immediately.
	for i := 1; i <= 15; i++ {
		tr.observe(time.Duration(i)*time.Second, 10*time.Millisecond, true)
	}
	// The second outage (20s–22s) falls entirely after the last completion;
	// the run ends at 25s with no further observations.
	tr.finish(25 * time.Second)
	stats := tr.stats()
	if len(stats) != 1 || stats[0].Cause != "outage" {
		t.Fatalf("stats = %+v, want one outage entry", stats)
	}
	s := stats[0]
	if s.Episodes != 2 || s.Recovered != 1 || s.Censored != 1 {
		t.Fatalf("episodes/recovered/censored = %d/%d/%d, want 2/1/1",
			s.Episodes, s.Recovered, s.Censored)
	}
}

func TestRecoveryTrackerUnfilledBaselineDisables(t *testing.T) {
	tr := newRecoveryTracker(0, nil, func(string, time.Duration, network.NodeID, string) {
		t.Error("violation from disabled tracker")
	})
	tr.observe(time.Second, 10*time.Millisecond, true)
	tr.onFault(2*time.Second, "crash")
	if tr.baselineSet {
		t.Fatal("baseline set from an unfilled window")
	}
	tr.finish(3 * time.Second)
	if len(tr.stats()) != 0 {
		t.Fatalf("stats = %+v, want none (tracking disabled)", tr.stats())
	}
}

// auditScenarioConfig is the reduced-scale chaos run for the integration
// tests below: faults on every channel plus scheduled outages and crashes.
func auditScenarioConfig(scheme core.Scheme) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = scheme
	cfg.NumClients = 20
	cfg.NData = 1000
	cfg.AccessRange = 150
	cfg.CacheSize = 40
	cfg.WarmupRequests = 30
	cfg.MeasuredRequests = 50
	cfg.P2PLossProb = 0.05
	cfg.UplinkLossProb = 0.02
	cfg.DownlinkLossProb = 0.02
	cfg.ServerOutagePeriod = 45 * time.Second
	cfg.ServerOutageDuration = 2 * time.Second
	cfg.CrashMTBF = 2 * time.Minute
	cfg.CrashDownMin = 2 * time.Second
	cfg.CrashDownMax = 5 * time.Second
	return cfg
}

// TestAuditedRunIsClean is the end-to-end soundness check: a faulty but
// unmutated run of every scheme must produce zero violations — the protocol
// honors its invariants, and the auditor does not cry wolf.
func TestAuditedRunIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	for _, scheme := range []core.Scheme{core.SchemeSC, core.SchemeCOCA, core.SchemeGroCoca} {
		s, err := core.New(auditScenarioConfig(scheme))
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
			t.Fatalf("%v: %d violations on an unmutated run", scheme, rep.TotalViolations())
		}
		if rep.Begun == 0 || rep.Begun != rep.Ended {
			t.Errorf("%v: begun/ended = %d/%d", scheme, rep.Begun, rep.Ended)
		}
		if rep.FreshServes+rep.StaleServes == 0 {
			t.Errorf("%v: staleness oracle classified no hits", scheme)
		}
		if len(rep.Recovery) == 0 {
			t.Errorf("%v: no recovery episodes despite outages and crashes", scheme)
		}
	}
}

// TestAttachDoesNotPerturbResults verifies the no-RNG guarantee directly:
// an audited run returns byte-identical Results to an unaudited run of the
// same configuration.
func TestAttachDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	cfg := auditScenarioConfig(core.SchemeGroCoca)
	baseline, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	Attach(s, Config{})
	audited, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The sweep's own kernel events are the one sanctioned difference;
	// everything the protocol produced must match exactly.
	if audited.Events <= baseline.Events {
		t.Errorf("audited run scheduled no sweep events: %d <= %d", audited.Events, baseline.Events)
	}
	audited.Events = baseline.Events
	if !reflect.DeepEqual(baseline, audited) {
		t.Errorf("attaching the auditor changed the run:\n  baseline: %+v\n  audited:  %+v", baseline, audited)
	}
}

// TestMutationIsCaught is the auditor's own acceptance test: a deliberately
// seeded fault-handling bug — a mid-run event that inflates every cached
// entry's TTL outside the protocol — must surface as staleness-oracle
// violations carrying the repro command.
func TestMutationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	cfg := auditScenarioConfig(core.SchemeCOCA)
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const repro = "go run ./cmd/grococa-chaos -selftest"
	a := Attach(s, Config{Repro: repro})
	s.Kernel().Schedule(30*time.Second, func() {
		for _, h := range s.Hosts() {
			h.Cache().Each(func(e *cache.Entry) {
				e.TTL += 1000 * time.Hour
			})
		}
	})
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Finish(r.Completed)
	if rep.Clean() {
		t.Fatal("TTL-inflation mutation went undetected")
	}
	caught := false
	for _, v := range rep.Violations {
		switch v.Invariant {
		case "ttl-inflation", "expired-serve":
			caught = true
			if v.Repro != repro {
				t.Errorf("violation misses repro command: %s", v)
			}
		}
	}
	if !caught {
		t.Fatalf("no staleness violations among: %v", violationInvariants(rep))
	}
}
