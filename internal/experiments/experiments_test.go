package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestAllExperimentsWellFormed(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("experiment count = %d, want 7 (Figures 2-8)", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Figure == "" || e.Title == "" || e.Param == "" {
			t.Errorf("experiment %q has empty metadata", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if len(e.Values) < 2 {
			t.Errorf("experiment %q sweeps %d values", e.ID, len(e.Values))
		}
		if e.Apply == nil {
			t.Errorf("experiment %q has no Apply", e.ID)
		}
		// Applying each value to the default config must keep it valid.
		for _, v := range e.Values {
			cfg := core.DefaultConfig()
			e.Apply(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("experiment %q value %v yields invalid config: %v", e.ID, v, err)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("cachesize"); !ok {
		t.Error("cachesize not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus experiment found")
	}
}

func TestAblationsWellFormed(t *testing.T) {
	abls := Ablations()
	if len(abls) < 5 {
		t.Fatalf("ablation count = %d, want >= 5", len(abls))
	}
	for _, a := range abls {
		cfg := core.DefaultConfig()
		a.Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("ablation %q yields invalid config: %v", a.ID, err)
		}
	}
}

func TestExperimentRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	base := core.DefaultConfig()
	base.NumClients = 10
	base.NData = 500
	base.AccessRange = 100
	base.CacheSize = 20
	e := Experiment{
		ID:     "tiny",
		Figure: "Fig X",
		Title:  "tiny smoke sweep",
		Param:  "theta",
		Values: []float64{0, 1},
		Apply:  func(cfg *core.Config, v float64) { cfg.Zipf = v },
	}
	base.WarmupRequests = 10
	base.MeasuredRequests = 20
	var progressLines int
	points, err := e.Run(Options{
		Base:     &base,
		Progress: func(string) { progressLines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 { // 2 values × 3 schemes
		t.Fatalf("points = %d, want 6", len(points))
	}
	if progressLines != 6 {
		t.Errorf("progress lines = %d, want 6", progressLines)
	}
	table := e.Table(points)
	for _, want := range []string{"Fig X", "theta", "SC", "COCA", "GroCoca", "latency(ms)"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	// Higher skew should not hurt SC's local hit ratio.
	var scFlat, scSkew core.Results
	for _, p := range points {
		if p.Scheme == core.SchemeSC && p.Value == 0 {
			scFlat = p.Mean()
		}
		if p.Scheme == core.SchemeSC && p.Value == 1 {
			scSkew = p.Mean()
		}
	}
	if scSkew.LocalHitRatio <= scFlat.LocalHitRatio {
		t.Errorf("Zipf skew did not improve SC LCH: %v vs %v", scSkew.LocalHitRatio, scFlat.LocalHitRatio)
	}
}

// TestOptionsBaseConfig: Base is the whole configuration — a zero seed
// included, which grococa-bench -seed 0 relies on — and nil means the
// defaults.
func TestOptionsBaseConfig(t *testing.T) {
	base := core.DefaultConfig()
	base.NumClients = 42
	base.Seed = 0
	base.WarmupRequests = 11
	base.MeasuredRequests = 22
	if cfg := (Options{Base: &base}).baseConfig(); cfg != base {
		t.Errorf("baseConfig = %+v, want Base %+v", cfg, base)
	}
	if cfg := (Options{}).baseConfig(); cfg != core.DefaultConfig() {
		t.Errorf("zero Options baseConfig = %+v, want the defaults", cfg)
	}
}

func TestAblationTableRendering(t *testing.T) {
	abls := Ablations()
	points := make([]Point, len(abls))
	for i := range points {
		points[i] = Point{Value: float64(i), Runs: []core.Results{{Scheme: "GroCoca"}}}
	}
	table := AblationTable(points)
	for _, a := range abls {
		if !strings.Contains(table, a.ID) {
			t.Errorf("ablation table missing %q", a.ID)
		}
	}
}

func TestRealExperimentTinyRunAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	base := Tiny()
	e, ok := Lookup("updaterate")
	if !ok {
		t.Fatal("updaterate experiment missing")
	}
	e.Values = e.Values[:2] // first two sweep points suffice for coverage
	points, err := e.Run(Options{Base: &base})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d, want 6", len(points))
	}
	table := e.Table(points)
	if !strings.Contains(table, "Fig 6") {
		t.Errorf("table missing figure label:\n%s", table)
	}
	csv := e.CSV(points)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 7 {
		t.Fatalf("csv lines = %d, want header + 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,figure,updaterate,scheme,") {
		t.Errorf("csv header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "updaterate,Fig 6,") {
			t.Errorf("csv row = %q", l)
		}
	}
}

func TestRunAblationsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	base := Tiny()
	points, err := AblationExperiment().Run(Options{Base: &base})
	if err != nil {
		t.Fatal(err)
	}
	if abls := Ablations(); len(points) != len(abls) {
		t.Fatalf("points = %d, ablations = %d", len(points), len(abls))
	}
	table := AblationTable(points)
	if !strings.Contains(table, "nocompression") {
		t.Errorf("ablation table incomplete:\n%s", table)
	}
}

// TestEveryCellBuildsOnTiny builds every figure, extension and ablation
// cell on grococa-bench -tiny's base, so that -exp all and -exp extensions
// never stop on a cell the small catalog cannot hold.
func TestEveryCellBuildsOnTiny(t *testing.T) {
	build := func(name string, cfg core.Config) {
		if _, err := core.New(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, e := range append(All(), Extensions()...) {
		for _, v := range e.Values {
			for _, s := range e.schemes() {
				cfg := Tiny()
				cfg.Scheme = s
				e.Apply(&cfg, v)
				build(fmt.Sprintf("%s %s=%s %v", e.ID, e.Param, e.format(v), s), cfg)
			}
		}
	}
	for _, a := range Ablations() {
		cfg := Tiny()
		cfg.Scheme = core.SchemeGroCoca
		a.Apply(&cfg)
		build("ablation "+a.ID, cfg)
	}
}

func TestExtensionsWellFormed(t *testing.T) {
	for _, e := range Extensions() {
		if e.ID == "" || len(e.Values) < 2 || e.Apply == nil {
			t.Errorf("extension %q malformed", e.ID)
		}
		for _, v := range e.Values {
			cfg := core.DefaultConfig()
			e.Apply(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("extension %q value %v invalid: %v", e.ID, v, err)
			}
			if e.FormatValue != nil && e.FormatValue(v) == "" {
				t.Errorf("extension %q value %v renders empty", e.ID, v)
			}
		}
	}
	if _, ok := Lookup("servicearea"); !ok {
		t.Error("Lookup missed extension")
	}
}
