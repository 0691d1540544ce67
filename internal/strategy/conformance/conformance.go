// Package conformance is the universal scheme-contract test harness: a
// table of properties every listed caching scheme — built-in or
// extension — must satisfy, independent of what the scheme actually does
// to the cache. A new entry in internal/strategy's scheme table
// is picked up by TestSchemeConformance automatically and must pass the
// whole table before it can ship; the table is also the executable
// definition of what "well-behaved scheme" means in this repo:
//
//   - request conservation — the four Section III outcomes partition the
//     measured requests, the run completes, nothing stays outstanding;
//   - outcome-ratio sum — the reported ratios partition to one;
//   - cache-capacity bound — no host's cache ever ends over capacity;
//   - parallel determinism — replicated runs are byte-identical for any
//     -parallel worker count;
//   - kill-point resume — a replication journal truncated mid-matrix
//     resumes to byte-identical results;
//   - digest stability — the same seed yields identical Results digests
//     across reruns, with and without a fault plan;
//   - chaos smoke — one audited chaos campaign run finishes with zero
//     invariant violations.
package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/strategy"
)

// Config is the harness's standard run for the given scheme: the same
// tiny-but-complete cell the seed-digest guard pins, exercising peer
// search, replacement pressure (cache far below the access range), and —
// in the faults variant — loss recovery.
func Config(id strategy.ID, faults bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = id
	cfg.NumClients = 12
	cfg.NData = 600
	cfg.AccessRange = 100
	cfg.CacheSize = 25
	cfg.WarmupRequests = 15
	cfg.MeasuredRequests = 25
	if faults {
		cfg.P2PLossProb = 0.05
		cfg.UplinkLossProb = 0.02
		cfg.DownlinkLossProb = 0.02
	}
	return cfg
}

// Harness runs the property table against one scheme. The fault-free base
// run is memoized so the shared-run properties (conservation, ratios,
// capacity) pay for one simulation, not three.
type Harness struct {
	Scheme strategy.Scheme

	baseSim *core.Simulation
	baseRes core.Results
}

// NewHarness prepares a harness for one listed scheme.
func NewHarness(sch strategy.Scheme) *Harness {
	return &Harness{Scheme: sch}
}

// base returns the memoized fault-free standard run.
func (h *Harness) base(t *testing.T) (*core.Simulation, core.Results) {
	t.Helper()
	if h.baseSim == nil {
		sim, res := h.runSim(t, Config(h.Scheme.ID(), false))
		h.baseSim, h.baseRes = sim, res
	}
	return h.baseSim, h.baseRes
}

// runSim builds and completes one simulation.
func (h *Harness) runSim(t *testing.T, cfg core.Config) (*core.Simulation, core.Results) {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", h.Scheme.Name(), err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatalf("%s: %v", h.Scheme.Name(), err)
	}
	return s, r
}

// Property is one universal scheme contract.
type Property struct {
	// Name is the subtest name; Doc states the contract in one line.
	Name string
	Doc  string
	Run  func(t *testing.T, h *Harness)
}

// Properties returns the full contract table in documentation order.
func Properties() []Property {
	return []Property{
		{
			Name: "request-conservation",
			Doc:  "the four outcomes partition the measured requests; the run completes with nothing outstanding",
			Run:  checkConservation,
		},
		{
			Name: "outcome-ratio-sum",
			Doc:  "local + global + server + failure ratios sum to one",
			Run:  checkRatioSum,
		},
		{
			Name: "cache-capacity-bound",
			Doc:  "no host's cache exceeds its configured capacity",
			Run:  checkCapacity,
		},
		{
			Name: "parallel-determinism",
			Doc:  "replicated results are identical for every -parallel worker count",
			Run:  checkParallelDeterminism,
		},
		{
			Name: "kill-point-resume",
			Doc:  "a journal truncated at a mid-run kill point resumes byte-identically",
			Run:  checkKillPointResume,
		},
		{
			Name: "digest-stability",
			Doc:  "same seed, same Results digest — with and without faults",
			Run:  checkDigestStability,
		},
		{
			Name: "chaos-smoke",
			Doc:  "one audited chaos campaign run reports zero invariant violations",
			Run:  checkChaosSmoke,
		},
	}
}

// Run drives the whole property table against one scheme.
func Run(t *testing.T, sch strategy.Scheme) {
	h := NewHarness(sch)
	for _, p := range Properties() {
		p := p
		t.Run(p.Name, func(t *testing.T) { p.Run(t, h) })
	}
}

func checkConservation(t *testing.T, h *Harness) {
	s, r := h.base(t)
	c := s.Collector()
	sum := c.OutcomeCount(client.OutcomeLocalHit) +
		c.OutcomeCount(client.OutcomeGlobalHit) +
		c.OutcomeCount(client.OutcomeServerRequest) +
		c.OutcomeCount(client.OutcomeFailure)
	if sum != c.Requests() {
		t.Errorf("outcome counts sum to %d, requests = %d", sum, c.Requests())
	}
	if r.Requests == 0 {
		t.Error("no measured requests")
	}
	if r.Requests != c.Requests() {
		t.Errorf("Results.Requests %d != collector %d", r.Requests, c.Requests())
	}
	if !r.Completed {
		t.Error("fault-free run hit the safety horizon")
	}
	if r.Faults.OutstandingRequests != 0 {
		t.Errorf("%d requests still outstanding at end of run", r.Faults.OutstandingRequests)
	}
}

func checkRatioSum(t *testing.T, h *Harness) {
	_, r := h.base(t)
	total := r.LocalHitRatio + r.GlobalHitRatio + r.ServerRequestRatio + r.FailureRatio
	if total < 1-1e-9 || total > 1+1e-9 {
		t.Errorf("outcome ratios sum to %v, want 1", total)
	}
	for name, v := range map[string]float64{
		"local": r.LocalHitRatio, "global": r.GlobalHitRatio,
		"server": r.ServerRequestRatio, "failure": r.FailureRatio,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s ratio %v outside [0, 1]", name, v)
		}
	}
}

func checkCapacity(t *testing.T, h *Harness) {
	s, _ := h.base(t)
	for _, host := range s.Hosts() {
		lru := host.Cache()
		if lru.Len() > lru.Cap() {
			t.Errorf("host %d cache holds %d entries over capacity %d",
				host.ID(), lru.Len(), lru.Cap())
		}
	}
}

func checkParallelDeterminism(t *testing.T, h *Harness) {
	cfg := Config(h.Scheme.ID(), false)
	const reps = 3
	serial, err := experiments.ReplicateJournaled(cfg, reps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := experiments.ReplicateJournaled(cfg, reps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Error("replications or their aggregate differ between 1 and 4 workers")
	}
}

func checkKillPointResume(t *testing.T, h *Harness) {
	cfg := Config(h.Scheme.ID(), false)
	const reps = 3
	meta := []byte("conformance-resume-" + strategy.FlagOf(h.Scheme))

	golden, err := experiments.ReplicateJournaled(cfg, reps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Full journaled run to learn the record boundaries.
	jr, err := checkpoint.OpenJournal(t.TempDir(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.ReplicateJournaled(cfg, reps, 2, jr); err != nil {
		t.Fatal(err)
	}
	offsets := jr.Offsets()
	full, err := os.ReadFile(jr.Path())
	if err != nil {
		t.Fatal(err)
	}
	_ = jr.Close()
	if len(offsets) < 2 {
		t.Fatalf("journal too small to place a kill point: %d records", len(offsets))
	}

	// Kill mid-matrix: keep a strict, non-empty prefix of the records.
	dir := t.TempDir()
	cut := offsets[len(offsets)/2]
	if err := os.WriteFile(filepath.Join(dir, "journal.gckj"), full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err = checkpoint.OpenJournal(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = jr.Close() }()
	resumed, err := experiments.ReplicateJournaled(cfg, reps, 2, jr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, golden) {
		t.Error("resumed replications or their aggregate differ from the uninterrupted run")
	}
}

func checkDigestStability(t *testing.T, h *Harness) {
	for _, faults := range []bool{false, true} {
		name := "no-faults"
		if faults {
			name = "faults"
		}
		cfg := Config(h.Scheme.ID(), faults)
		_, r1 := h.runSim(t, cfg)
		_, r2 := h.runSim(t, cfg)
		if d1, d2 := resultsDigest(t, r1), resultsDigest(t, r2); d1 != d2 {
			t.Errorf("%s: same seed, different Results digests: %s vs %s", name, d1, d2)
		}
	}
}

func checkChaosSmoke(t *testing.T, h *Harness) {
	campaigns := chaos.Campaigns()[:1]
	sum, err := chaos.Run(chaos.Options{
		BaseSeed:  1,
		Seeds:     1,
		Campaigns: campaigns,
		Schemes:   []core.Scheme{h.Scheme.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != 1 {
		t.Fatalf("expected 1 audited run, got %d", sum.Runs)
	}
	if !sum.Clean() {
		for _, v := range sum.Violations {
			t.Errorf("invariant violation: %+v", v)
		}
		t.Errorf("campaign %s not audit-clean under %s", campaigns[0].Name, h.Scheme.Name())
	}
}

// resultsDigest canonicalizes Results exactly like the seed-digest guard.
func resultsDigest(t *testing.T, r core.Results) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
