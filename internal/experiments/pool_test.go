package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tinyExperiment is a two-value sweep over all three schemes.
func tinyExperiment() Experiment {
	return Experiment{
		ID:     "pooltiny",
		Figure: "Fig T",
		Title:  "pool engine smoke sweep",
		Param:  "theta",
		Values: []float64{0, 1},
		Apply:  func(cfg *core.Config, v float64) { cfg.Zipf = v },
	}
}

func tinyOptions() Options {
	base := Tiny()
	return Options{Base: &base}
}

func TestDeriveSeed(t *testing.T) {
	base := int64(1)
	if got := deriveSeed(base, "cachesize", 0, core.SchemeSC, 0); got != base {
		t.Errorf("replication 0 seed = %d, want base %d", got, base)
	}
	// The derivation is a pure function of the tuple.
	a := deriveSeed(base, "cachesize", 2, core.SchemeCOCA, 3)
	b := deriveSeed(base, "cachesize", 2, core.SchemeCOCA, 3)
	if a != b {
		t.Errorf("derivation not deterministic: %d vs %d", a, b)
	}
	// Perturbing any tuple component yields a different seed.
	variants := []int64{
		deriveSeed(base+1, "cachesize", 2, core.SchemeCOCA, 3),
		deriveSeed(base, "skew", 2, core.SchemeCOCA, 3),
		deriveSeed(base, "cachesize", 1, core.SchemeCOCA, 3),
		deriveSeed(base, "cachesize", 2, core.SchemeGroCoca, 3),
		deriveSeed(base, "cachesize", 2, core.SchemeCOCA, 4),
	}
	seen := map[int64]int{a: -1}
	for i, v := range variants {
		if prev, dup := seen[v]; dup {
			t.Errorf("variant %d collides with variant %d: seed %d", i, prev, v)
		}
		seen[v] = i
	}
}

// TestRunSequentialEquivalence pins the engine against the legacy
// sequential path: the straightforward nested loop over (value, scheme)
// calling core.Run with the base seed. Worker counts 1, 4 and 8 must all
// reproduce it deep-equal, and render byte-identical tables and CSV. The
// seed-digest goldens (internal/integration) guard the same property at
// the core.Run layer.
func TestRunSequentialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	e := tinyExperiment()
	opts := tinyOptions()

	// The legacy sequential runner, verbatim.
	schemes := []core.Scheme{core.SchemeSC, core.SchemeCOCA, core.SchemeGroCoca}
	var want []Point
	for _, v := range e.Values {
		for _, scheme := range schemes {
			cfg := opts.baseConfig()
			cfg.Scheme = scheme
			e.Apply(&cfg, v)
			r, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, Point{Value: v, Scheme: scheme, Results: r, Reps: 1, Runs: []core.Results{r}})
		}
	}
	wantTable, wantCSV := e.Table(want), e.CSV(want)

	for _, workers := range []int{1, 4, 8} {
		o := opts
		o.Workers = workers
		got, err := e.Run(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: points differ from sequential path", workers)
		}
		if table := e.Table(got); table != wantTable {
			t.Errorf("workers=%d: table differs:\n%s\nwant:\n%s", workers, table, wantTable)
		}
		if csv := e.CSV(got); csv != wantCSV {
			t.Errorf("workers=%d: csv differs:\n%s\nwant:\n%s", workers, csv, wantCSV)
		}
	}
}

// TestRunReplicatedDeterministicAcrossWorkers is the acceptance criterion:
// a replicated sweep must produce byte-identical tables and CSV across
// repeated runs and across worker counts.
func TestRunReplicatedDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	e := tinyExperiment()
	e.Schemes = []core.Scheme{core.SchemeSC, core.SchemeGroCoca}

	ref := tinyOptions()
	ref.Replications = 4
	ref.Workers = 8
	want, err := e.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want {
		if p.Reps != 4 {
			t.Fatalf("cell reps = %d, want 4", p.Reps)
		}
		if p.Spread == nil {
			t.Fatal("replicated cell has nil Spread")
		}
	}
	wantTable, wantCSV := e.Table(want), e.CSV(want)
	if !strings.Contains(wantTable, "±") || !strings.Contains(wantTable, "reps") {
		t.Errorf("replicated table missing mean±sd columns:\n%s", wantTable)
	}
	if !strings.Contains(wantCSV, ",reps,") {
		t.Errorf("replicated csv missing reps column:\n%s", wantCSV)
	}

	for _, workers := range []int{1, 3, 8} {
		o := ref
		o.Workers = workers
		got, err := e.Run(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: replicated points differ", workers)
		}
		if table := e.Table(got); table != wantTable {
			t.Errorf("workers=%d: replicated table not byte-identical", workers)
		}
		if csv := e.CSV(got); csv != wantCSV {
			t.Errorf("workers=%d: replicated csv not byte-identical", workers)
		}
	}
}

// TestAggregateMatchesManualReplication recomputes one cell by hand: run
// each derived seed directly through core.Run and check the aggregated
// mean and sample stddev against the engine's output.
func TestAggregateMatchesManualReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	e := tinyExperiment()
	e.Schemes = []core.Scheme{core.SchemeGroCoca}
	e.Values = e.Values[:1]
	opts := tinyOptions()
	opts.Replications = 3
	opts.Workers = 4
	points, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("points = %d, want 1", len(points))
	}

	var manual []core.Results
	for rep := 0; rep < 3; rep++ {
		cfg := opts.baseConfig()
		cfg.Scheme = core.SchemeGroCoca
		e.Apply(&cfg, e.Values[0])
		cfg.Seed = deriveSeed(cfg.Seed, e.ID, 0, core.SchemeGroCoca, rep)
		r, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		manual = append(manual, r)
	}
	wantPoint := aggregate(e.Values[0], core.SchemeGroCoca, manual)
	if !reflect.DeepEqual(points[0], wantPoint) {
		t.Errorf("engine cell differs from manual replication:\nengine: %+v\nmanual: %+v", points[0], wantPoint)
	}
	// Replications with distinct seeds should actually differ — otherwise
	// the stddev column is vacuous.
	distinct := false
	for _, r := range manual[1:] {
		if r.MeanLatency != manual[0].MeanLatency || r.LocalHitRatio != manual[0].LocalHitRatio {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all replications identical; seed derivation appears inert")
	}
	var latencies []float64
	for _, r := range manual {
		latencies = append(latencies, float64(r.MeanLatency)/float64(time.Millisecond))
	}
	mean := (latencies[0] + latencies[1] + latencies[2]) / 3
	gotMean := float64(points[0].Results.MeanLatency) / float64(time.Millisecond)
	// The engine averages the duration in integer nanoseconds; half a
	// nanosecond of rounding is the most that can separate the two means.
	if diff := gotMean - mean; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("aggregated latency mean = %v, manual mean = %v", gotMean, mean)
	}
}

// TestMeanResultsFields checks the field-wise aggregation rules on a
// synthetic pair of results.
func TestMeanResultsFields(t *testing.T) {
	a := core.Results{
		Scheme:          "GroCoca",
		Completed:       true,
		Requests:        10,
		MeanLatency:     10 * time.Millisecond,
		LocalHitRatio:   0.25,
		TotalEnergy:     100,
		EnergyBreakdown: map[string]float64{"p2p-send": 2, "only-a": 4},
		SimTime:         20 * time.Second,
		Events:          100,
	}
	b := core.Results{
		Scheme:          "GroCoca",
		Completed:       false,
		Requests:        20,
		MeanLatency:     20 * time.Millisecond,
		LocalHitRatio:   0.5,
		TotalEnergy:     300,
		EnergyBreakdown: map[string]float64{"p2p-send": 6},
		SimTime:         40 * time.Second,
		Events:          200,
	}
	m := meanResults([]core.Results{a, b})
	if m.Scheme != "GroCoca" {
		t.Errorf("Scheme = %q", m.Scheme)
	}
	if m.Completed {
		t.Error("Completed must AND to false")
	}
	if m.Requests != 15 || m.Events != 150 {
		t.Errorf("integer means: requests=%d events=%d", m.Requests, m.Events)
	}
	if m.MeanLatency != 15*time.Millisecond || m.SimTime != 30*time.Second {
		t.Errorf("duration means: latency=%v simtime=%v", m.MeanLatency, m.SimTime)
	}
	if m.LocalHitRatio != 0.375 || m.TotalEnergy != 200 {
		t.Errorf("float means: lch=%v energy=%v", m.LocalHitRatio, m.TotalEnergy)
	}
	if got := m.EnergyBreakdown["p2p-send"]; got != 4 {
		t.Errorf("breakdown mean p2p-send = %v, want 4", got)
	}
	if got := m.EnergyBreakdown["only-a"]; got != 2 {
		t.Errorf("breakdown mean only-a = %v, want 2 (missing keys count as 0)", got)
	}
	// A single replication passes through untouched.
	if !reflect.DeepEqual(meanResults([]core.Results{a}), a) {
		t.Error("single-replication mean must be the identity")
	}
}

// TestProgressOrderedUnderPool hammers the collector: with many workers
// and replications, Progress must fire exactly once per cell, in canonical
// cell order, serialized on the calling goroutine — the callback appends
// to an unsynchronized slice, so any violation trips the race detector.
func TestProgressOrderedUnderPool(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	e := Experiment{
		ID:     "poolprogress",
		Figure: "Fig T",
		Title:  "progress ordering hammer",
		Param:  "theta",
		Values: []float64{0, 0.5, 1},
		Apply:  func(cfg *core.Config, v float64) { cfg.Zipf = v },
	}
	schemes := []core.Scheme{core.SchemeSC, core.SchemeCOCA, core.SchemeGroCoca}
	var wantPrefixes []string
	for _, v := range e.Values {
		for _, s := range schemes {
			wantPrefixes = append(wantPrefixes, fmt.Sprintf("%s %s=%s %s", e.ID, e.Param, e.format(v), s))
		}
	}
	for round := 0; round < 3; round++ {
		opts := tinyOptions()
		opts.Base.WarmupRequests = 2
		opts.Base.MeasuredRequests = 4
		opts.Replications = 2
		opts.Workers = 16
		var lines []string
		opts.Progress = func(line string) { lines = append(lines, line) }
		if _, err := e.Run(opts); err != nil {
			t.Fatal(err)
		}
		if len(lines) != len(wantPrefixes) {
			t.Fatalf("round %d: %d progress lines, want %d", round, len(lines), len(wantPrefixes))
		}
		for i, line := range lines {
			if !strings.HasPrefix(line, wantPrefixes[i]) {
				t.Errorf("round %d: progress line %d = %q, want prefix %q", round, i, line, wantPrefixes[i])
			}
			if !strings.HasSuffix(line, "(reps=2)") {
				t.Errorf("round %d: progress line %d missing reps suffix: %q", round, i, line)
			}
		}
	}
}

// TestRunPoolErrorDeterministic: the first failing (cell, replication) in
// canonical order is reported no matter which worker hits it first.
func TestRunPoolErrorDeterministic(t *testing.T) {
	e := tinyExperiment()
	e.Apply = func(cfg *core.Config, v float64) {
		cfg.Zipf = v
		if v == 1 {
			cfg.NumClients = 0 // invalid: every scheme cell of value 1 fails
		}
	}
	opts := tinyOptions()
	opts.Workers = 8
	opts.Replications = 2
	var first error
	for i := 0; i < 4; i++ {
		_, err := e.Run(opts)
		if err == nil {
			t.Fatal("invalid cell did not fail")
		}
		if !strings.Contains(err.Error(), "theta=1") || !strings.Contains(err.Error(), "rep 0") {
			t.Fatalf("error is not the canonically first failure: %v", err)
		}
		if first == nil {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("error message varies across runs: %q vs %q", err, first)
		}
	}
}

// TestReplicate covers the single-config replication helper behind
// grococa-sim -reps.
func TestReplicate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cfg := Tiny()
	p, err := ReplicateJournaled(cfg, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := p.Runs
	if len(rs) != 3 || p.Reps != 3 || p.Spread == nil {
		t.Fatalf("replicate: %d results, reps=%d, spread=%v", len(rs), p.Reps, p.Spread)
	}
	// Deterministic across worker counts.
	p1, err := ReplicateJournaled(cfg, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p1) {
		t.Error("ReplicateJournaled output differs across worker counts")
	}
	// Replication 0 is the plain base-seed run.
	direct, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[0], direct) {
		t.Error("replication 0 differs from a direct base-seed run")
	}
}

// TestRunAblationsParallelEquivalence: the ablation suite must be
// insensitive to worker count too.
func TestRunAblationsParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	opts := tinyOptions()
	opts.Base.WarmupRequests = 3
	opts.Base.MeasuredRequests = 6
	opts.Workers = 1
	seq, err := AblationExperiment().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	par, err := AblationExperiment().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("ablation results differ across worker counts")
	}
}
