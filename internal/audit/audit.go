// Package audit is the online invariant monitor of the chaos subsystem:
// it hooks the client protocol's audit feed and the simulation kernel and
// checks, while the run executes, that the COCA/GroCoca protocol stays
// correct under injected faults. Four invariant families are covered:
//
//   - request conservation — every issued request terminates in exactly
//     one of {local hit, global hit, server reply, failure}, with
//     per-cause attribution of abnormal terminations;
//   - the staleness oracle — every hit served from a cached copy is
//     checked against the admission-time TTL contract (serves beyond the
//     contract are violations) and against the catalog's authoritative
//     lastUpdate (ground-truth staleness is counted, since the paper's
//     weak consistency deliberately permits it);
//   - structural invariants — cache capacity bounds, counting-filter
//     counter non-negativity and cache-signature coverage, TCG membership
//     symmetry at the MSS, and a bounded adaptive search timeout even
//     under total loss;
//   - recovery SLOs — time to recover access latency and hit ratio to a
//     tolerance band after each outage or crash episode (see recovery.go).
//
// The auditor consumes no simulation randomness, so an audited run's
// protocol behavior is byte-identical to an unaudited run of the same
// seed; only the kernel's event sequence numbers shift (by the periodic
// structural sweeps), which preserves relative event order.
package audit

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// Config parameterises the auditor.
type Config struct {
	// SweepEvery is the period of the structural-invariant sweep; zero
	// selects the 5s default, negative disables sweeps.
	SweepEvery time.Duration
	// MaxSearchTimeout bounds the adaptive τ a cooperative host may hold
	// (the blackout invariant: τ must stay finite under 100% loss). Zero
	// selects the 30s default.
	MaxSearchTimeout time.Duration
	// MaxViolations caps the recorded violation list; further violations
	// are counted but not stored. Zero selects the 100 default.
	MaxViolations int
	// Repro, when set, is attached verbatim to every violation — the
	// one-line command that replays this exact run.
	Repro string
	// Recovery parameterises the recovery-SLO tracker.
	Recovery RecoveryConfig
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.SweepEvery == 0 {
		c.SweepEvery = 5 * time.Second
	}
	if c.MaxSearchTimeout == 0 {
		c.MaxSearchTimeout = 30 * time.Second
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 100
	}
	c.Recovery = c.Recovery.withDefaults()
	return c
}

// Violation is one observed invariant breach.
type Violation struct {
	// Invariant names the breached invariant family (e.g. "ttl-inflation",
	// "request-conservation", "tcg-symmetry").
	Invariant string
	// At is the simulation time of the observation.
	At time.Duration
	// Host is the mobile host involved (-1 for system-wide breaches).
	Host network.NodeID
	// Detail describes the breach.
	Detail string
	// Repro is the replay command from Config.Repro.
	Repro string
}

// String renders the violation as one log line.
func (v Violation) String() string {
	s := fmt.Sprintf("[%s] t=%v host=%d: %s", v.Invariant, v.At, v.Host, v.Detail)
	if v.Repro != "" {
		s += "  repro: " + v.Repro
	}
	return s
}

// reqKey identifies one in-flight request.
type reqKey struct {
	host network.NodeID
	seq  uint64
}

// contractKey identifies one cached copy's consistency contract.
type contractKey struct {
	host network.NodeID
	item workload.ItemID
}

// contract is the TTL promise a copy was admitted under.
type contract struct {
	retrievedAt time.Duration
	ttl         time.Duration
}

// Auditor implements client.AuditSink and the structural sweep. Create it
// with Attach; read the verdict with Finish after the run.
type Auditor struct {
	sim     *core.Simulation
	catalog *server.Catalog
	cfg     Config

	open      map[reqKey]workload.ItemID
	contracts map[contractKey]contract

	begun, ended uint64
	outcomes     map[client.Outcome]uint64
	causes       map[string]uint64

	freshServes uint64
	staleServes uint64

	// Resilience-layer tracking (see resilience.go): last observed breaker
	// state per host, last observed budget spend per open request, and the
	// spend, breaker-open, degraded-serve and hedge tallies reconciled at
	// Finish.
	breakers       map[network.NodeID]resilience.State
	budgets        map[reqKey]int
	spends         map[string]uint64
	breakerOpens   uint64
	degradedServes uint64
	hedges         uint64

	violations []Violation
	dropped    int

	recovery *recoveryTracker
}

var _ client.AuditSink = (*Auditor)(nil)

// Attach builds an auditor, hooks it into the simulation's collector, and
// schedules the structural sweep on the kernel. It must be called after
// core.New and before Run.
func Attach(s *core.Simulation, cfg Config) *Auditor {
	cfg = cfg.withDefaults()
	a := &Auditor{
		sim:       s,
		catalog:   s.MSS().Catalog(),
		cfg:       cfg,
		open:      make(map[reqKey]workload.ItemID),
		contracts: make(map[contractKey]contract),
		outcomes:  make(map[client.Outcome]uint64),
		causes:    make(map[string]uint64),
		breakers:  make(map[network.NodeID]resilience.State),
		budgets:   make(map[reqKey]int),
		spends:    make(map[string]uint64),
	}
	a.recovery = newRecoveryTracker(cfg.Recovery, s.FaultPlan(), a.violate)
	s.Collector().Audit = a
	if cfg.SweepEvery > 0 {
		s.Kernel().Schedule(cfg.SweepEvery, a.sweep)
	}
	return a
}

// violate records one breach, honoring the storage cap.
func (a *Auditor) violate(invariant string, at time.Duration, host network.NodeID, detail string) {
	if len(a.violations) >= a.cfg.MaxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, Violation{
		Invariant: invariant,
		At:        at,
		Host:      host,
		Detail:    detail,
		Repro:     a.cfg.Repro,
	})
}

// RequestBegan implements client.AuditSink: conservation entry point.
func (a *Auditor) RequestBegan(at time.Duration, host network.NodeID, seq uint64, item workload.ItemID) {
	a.begun++
	key := reqKey{host: host, seq: seq}
	if _, dup := a.open[key]; dup {
		a.violate("request-conservation", at, host,
			fmt.Sprintf("request seq %d began twice", seq))
		return
	}
	a.open[key] = item
}

// RequestEnded implements client.AuditSink: conservation exit point and
// recovery-SLO sample feed.
func (a *Auditor) RequestEnded(at time.Duration, host network.NodeID, seq uint64, item workload.ItemID, outcome client.Outcome, cause string, latency time.Duration) {
	a.ended++
	key := reqKey{host: host, seq: seq}
	if _, ok := a.open[key]; !ok {
		a.violate("request-conservation", at, host,
			fmt.Sprintf("request seq %d ended (%s) without beginning", seq, outcome))
	} else {
		delete(a.open, key)
	}
	delete(a.budgets, key)
	a.outcomes[outcome]++
	if cause != "" {
		a.causes[cause]++
	}
	hit := outcome == client.OutcomeLocalHit || outcome == client.OutcomeGlobalHit
	a.recovery.observe(at, latency, hit)
}

// CopyAdmitted implements client.AuditSink: records the TTL contract every
// later hit on this copy must honor.
func (a *Auditor) CopyAdmitted(at time.Duration, host network.NodeID, item workload.ItemID, ttl time.Duration) {
	a.contracts[contractKey{host: host, item: item}] = contract{retrievedAt: at, ttl: ttl}
}

// HitServed implements client.AuditSink: the staleness oracle. Every hit
// is checked against the serving copy's admission contract and classified
// against the catalog's authoritative update history.
func (a *Auditor) HitServed(at time.Duration, host, provider network.NodeID, item workload.ItemID, outcome client.Outcome, retrievedAt, expiresAt time.Duration) {
	switch outcome {
	case client.OutcomeLocalHit:
		c, ok := a.contracts[contractKey{host: host, item: item}]
		switch {
		case !ok:
			a.violate("staleness-oracle", at, host,
				fmt.Sprintf("local hit on item %d with no admission contract", item))
		case retrievedAt != c.retrievedAt:
			a.violate("staleness-oracle", at, host,
				fmt.Sprintf("item %d served with retrieval time %v, contract says %v (entry mutated outside the protocol)", item, retrievedAt, c.retrievedAt))
		default:
			bound := c.retrievedAt + c.ttl
			if expiresAt > bound {
				a.violate("ttl-inflation", at, host,
					fmt.Sprintf("item %d claims expiry %v beyond contract %v", item, expiresAt, bound))
			}
			if at > bound {
				a.violate("expired-serve", at, host,
					fmt.Sprintf("item %d served %v after its contract expired", item, at-bound))
			}
		}
	case client.OutcomeGlobalHit:
		// The provider may legitimately have refreshed its copy between
		// the reply and this delivery; only a contract with a matching
		// retrieval time pins the claim down.
		if c, ok := a.contracts[contractKey{host: provider, item: item}]; ok && c.retrievedAt == retrievedAt {
			if bound := c.retrievedAt + c.ttl; expiresAt > bound {
				a.violate("ttl-inflation", at, provider,
					fmt.Sprintf("item %d delivered to host %d with expiry %v beyond contract %v", item, host, expiresAt, bound))
			}
		}
	}
	// Ground truth: the paper's weak consistency permits serving copies the
	// server has since updated, so staleness is counted, not flagged.
	if a.catalog != nil {
		if a.catalog.UpdatedSince(item, retrievedAt) {
			a.staleServes++
		} else {
			a.freshServes++
		}
	}
}

// FaultEvent implements client.AuditSink: feeds the recovery tracker.
func (a *Auditor) FaultEvent(at time.Duration, host network.NodeID, cause string) {
	a.recovery.onFault(at, cause)
}

// sweep checks the structural invariants across all hosts and the MSS,
// then reschedules itself. It runs on the kernel goroutine.
func (a *Auditor) sweep() {
	now := a.sim.Kernel().Now()
	traits := strategy.TraitsOf(a.sim.Config().Scheme)
	for _, h := range a.sim.Hosts() {
		lru := h.Cache()
		if lru.Len() > lru.Cap() {
			a.violate("cache-capacity", now, h.ID(),
				fmt.Sprintf("cache holds %d entries over capacity %d", lru.Len(), lru.Cap()))
		}
		if traits.PeerSearch {
			if tau := h.SearchTimeout(); tau <= 0 || tau > a.cfg.MaxSearchTimeout {
				a.violate("bounded-tau", now, h.ID(),
					fmt.Sprintf("search timeout %v outside (0, %v]", tau, a.cfg.MaxSearchTimeout))
			}
		}
		if traits.Signatures {
			if h.SignatureDirty() {
				a.violate("filter-counters", now, h.ID(),
					"counting-filter signature has a negative-counter defect")
			}
			for _, item := range lru.Items() {
				if !h.OwnSignatureCovers(item) {
					a.violate("signature-coverage", now, h.ID(),
						fmt.Sprintf("cached item %d not covered by own cache signature", item))
					break
				}
			}
		}
	}
	if tcg := a.sim.MSS().TCG(); tcg != nil {
		for _, h := range a.sim.Hosts() {
			i := h.ID()
			for _, j := range tcg.TCG(i) {
				if !memberOf(tcg.TCG(j), i) {
					a.violate("tcg-symmetry", now, i,
						fmt.Sprintf("host %d lists %d as TCG member but not vice versa", i, j))
				}
			}
		}
	}
	a.sim.Kernel().Schedule(a.cfg.SweepEvery, a.sweep)
}

// memberOf reports whether id appears in the member list.
func memberOf(members []network.NodeID, id network.NodeID) bool {
	for _, m := range members {
		if m == id {
			return true
		}
	}
	return false
}

// Finish closes the audit after the run: leftover in-flight requests are
// conservation violations on a completed run (and a stall diagnosis on a
// horizon-expired one), the open set is cross-checked against the hosts'
// own in-flight state, the client's recovery counters are reconciled
// with the observed events, and the report is assembled with
// deterministically ordered tallies.
func (a *Auditor) Finish(completed bool) Report {
	at := time.Duration(0)
	if a.sim != nil {
		at = a.sim.Kernel().Now()
	}
	keys := make([]reqKey, 0, len(a.open))
	for k := range a.open {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		if completed {
			a.violate("request-conservation", at, k.host,
				fmt.Sprintf("request seq %d (item %d) never terminated on a completed run", k.seq, a.open[k]))
		} else {
			a.violate("horizon-stall", at, k.host,
				fmt.Sprintf("request seq %d (item %d) still in flight at horizon expiry", k.seq, a.open[k]))
		}
	}
	if a.sim != nil {
		if outstanding := a.sim.OutstandingRequests(); outstanding != len(a.open) {
			a.violate("request-conservation", at, -1,
				fmt.Sprintf("audit tracks %d open requests but %d hosts report one in flight", len(a.open), outstanding))
		}
		a.reconcile(at, a.sim.Collector().Aux())
	}
	a.recovery.finish(at)
	return a.report(completed)
}

// report assembles the final Report with sorted tallies.
func (a *Auditor) report(completed bool) Report {
	r := Report{
		Completed:         completed,
		Violations:        a.violations,
		DroppedViolations: a.dropped,
		Begun:             a.begun,
		Ended:             a.ended,
		FreshServes:       a.freshServes,
		StaleServes:       a.staleServes,
		DegradedServes:    a.degradedServes,
		Hedges:            a.hedges,
		Recovery:          a.recovery.stats(),
	}
	for _, o := range []client.Outcome{client.OutcomeLocalHit, client.OutcomeGlobalHit, client.OutcomeServerRequest, client.OutcomeFailure} {
		if n := a.outcomes[o]; n > 0 {
			r.Outcomes = append(r.Outcomes, OutcomeCount{Outcome: o, Count: n})
		}
	}
	causes := make([]string, 0, len(a.causes))
	for c := range a.causes {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		r.Causes = append(r.Causes, CauseCount{Cause: c, Count: a.causes[c]})
	}
	return r
}
