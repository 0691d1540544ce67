package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestParamsDeterminism(t *testing.T) {
	a := NewParams(42, "loss-ramp")
	b := NewParams(42, "loss-ramp")
	for i := 0; i < 8; i++ {
		x, y := a.Float(0, 1), b.Float(0, 1)
		if x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
		if x < 0 || x >= 1 {
			t.Fatalf("draw %d out of range: %v", i, x)
		}
	}
	if c := NewParams(42, "burst-storm"); c.Float(0, 1) == NewParams(42, "loss-ramp").Float(0, 1) {
		t.Error("different labels produced the same first draw")
	}
	if d := NewParams(43, "loss-ramp"); d.Float(0, 1) == NewParams(42, "loss-ramp").Float(0, 1) {
		t.Error("different base seeds produced the same first draw")
	}
}

func TestParamsRanges(t *testing.T) {
	p := NewParams(7, "ranges")
	for i := 0; i < 100; i++ {
		if f := p.Float(0.2, 0.6); f < 0.2 || f >= 0.6 {
			t.Fatalf("Float out of [0.2, 0.6): %v", f)
		}
		if d := p.Duration(time.Second, 3*time.Second); d < time.Second || d >= 3*time.Second {
			t.Fatalf("Duration out of [1s, 3s): %v", d)
		}
	}
}

// TestCampaignScenarioIsSchemeIndependent verifies the matrix guarantee:
// the fault scenario of a (campaign, seed index) pair is identical no
// matter which scheme runs under it.
func TestCampaignScenarioIsSchemeIndependent(t *testing.T) {
	for _, c := range Campaigns() {
		cfgs := make([]core.Config, 0, 3)
		for range []core.Scheme{core.SchemeSC, core.SchemeCOCA, core.SchemeGroCoca} {
			// The scheme is applied after the draws; omitting it here
			// compares exactly what the chain produced.
			p := NewParams(9, c.Name).Index(3)
			cfg := BaseConfig()
			cfg.Seed = p.Seed()
			c.Apply(p, &cfg)
			cfgs = append(cfgs, cfg)
		}
		if !reflect.DeepEqual(cfgs[0], cfgs[1]) || !reflect.DeepEqual(cfgs[1], cfgs[2]) {
			t.Errorf("%s: scenario differs across schemes", c.Name)
		}
	}
}

func TestCampaignConfigsValidate(t *testing.T) {
	for _, c := range Campaigns() {
		for k := 0; k < 5; k++ {
			p := NewParams(1, c.Name).Index(k)
			cfg := BaseConfig()
			cfg.Seed = p.Seed()
			c.Apply(p, &cfg)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", c.Name, k, err)
			}
		}
	}
}

func TestCampaignByName(t *testing.T) {
	if c, ok := CampaignByName("blackout"); !ok || c.Name != "blackout" {
		t.Fatalf("blackout lookup = %v, %v", c.Name, ok)
	}
	if _, ok := CampaignByName("no-such-campaign"); ok {
		t.Fatal("unknown campaign found")
	}
}

func TestReproCommand(t *testing.T) {
	got := ReproCommand("burst-storm", core.SchemeGroCoca, 7, 3, false)
	want := "go run ./cmd/grococa-chaos -campaign burst-storm -scheme grococa -seed 7 -seed-index 3"
	if got != want {
		t.Errorf("repro = %q, want %q", got, want)
	}
	if got := ReproCommand("blackout", core.SchemeSC, 1, 0, true); !strings.HasSuffix(got, " -selftest") {
		t.Errorf("self-test repro misses flag: %q", got)
	}
}

// matrixOptions is the reduced matrix for the runner tests: two campaigns,
// two schemes, two seeds — small enough for the race detector, wide enough
// to exercise the collector's reorder window.
func matrixOptions(workers int) Options {
	return Options{
		BaseSeed: 1,
		Seeds:    2,
		Workers:  workers,
		Campaigns: []Campaign{
			mustCampaign("loss-ramp"),
			mustCampaign("outage-storm"),
		},
		Schemes: []core.Scheme{core.SchemeSC, core.SchemeGroCoca},
	}
}

func mustCampaign(name string) Campaign {
	c, ok := CampaignByName(name)
	if !ok {
		panic("unknown campaign " + name)
	}
	return c
}

// TestMatrixDeterministicAcrossWorkers is the parallel-soundness guarantee:
// the summary and the per-run result stream are identical for every worker
// count.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	var base Summary
	var baseRuns []RunResult
	for i, workers := range []int{1, 4} {
		opts := matrixOptions(workers)
		var runs []RunResult
		opts.OnResult = func(r RunResult) { runs = append(runs, r) }
		sum, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !sum.Clean() {
			t.Fatalf("workers=%d: unexpected violations: %v", workers, sum.Violations)
		}
		if i == 0 {
			base, baseRuns = sum, runs
			continue
		}
		if !reflect.DeepEqual(base, sum) {
			t.Errorf("summary differs between 1 and %d workers", workers)
		}
		if !reflect.DeepEqual(baseRuns, runs) {
			t.Errorf("result stream differs between 1 and %d workers", workers)
		}
	}
	if base.Runs != 8 {
		t.Errorf("runs = %d, want 8", base.Runs)
	}
}

// TestSeedIndexRepro verifies the repro path: replaying one seed index
// reproduces the matrix run byte-for-byte.
func TestSeedIndexRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	opts := matrixOptions(2)
	var fromMatrix RunResult
	opts.OnResult = func(r RunResult) {
		if r.Campaign == "outage-storm" && r.Scheme == core.SchemeGroCoca && r.SeedIndex == 1 {
			fromMatrix = r
		}
	}
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	replay := Options{
		BaseSeed:  1,
		Seeds:     2,
		Replay:    true,
		SeedIndex: 1,
		Workers:   1,
		Campaigns: []Campaign{mustCampaign("outage-storm")},
		Schemes:   []core.Scheme{core.SchemeGroCoca},
	}
	var replayed RunResult
	replay.OnResult = func(r RunResult) { replayed = r }
	if _, err := Run(replay); err != nil {
		t.Fatal(err)
	}
	if fromMatrix.Campaign == "" {
		t.Fatal("target run missing from matrix")
	}
	if !reflect.DeepEqual(fromMatrix, replayed) {
		t.Errorf("replayed run differs from matrix run:\n  matrix: %+v\n  replay: %+v", fromMatrix, replayed)
	}
}

// TestSelfTestMutationReportsViolations proves the end-to-end detection
// chain: the deliberately seeded TTL-corruption bug must surface as
// violations whose repro command carries the -selftest flag.
func TestSelfTestMutationReportsViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario simulation in -short mode")
	}
	sum, err := Run(Options{
		BaseSeed:  1,
		Seeds:     1,
		Workers:   2,
		SelfTest:  true,
		Campaigns: []Campaign{mustCampaign("loss-ramp")},
		Schemes:   []core.Scheme{core.SchemeCOCA},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Clean() {
		t.Fatal("self-test mutation produced a clean matrix — the auditor is blind")
	}
	for _, v := range sum.Violations {
		if !strings.Contains(v.Repro, "-selftest") {
			t.Fatalf("violation repro misses -selftest: %s", v)
		}
	}
}
