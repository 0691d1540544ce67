// Package experiments defines the paper's evaluation suite: one experiment
// per figure (Figures 2–8), each sweeping a single parameter across the
// three schemes and reporting the four metrics every figure plots — access
// latency, server request ratio, global cache hit ratio, and power per
// global cache hit — plus the ablation suite for GroCoca's design choices.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/strategy"
)

// Experiment is one parameter sweep of the evaluation section.
type Experiment struct {
	// ID is the short handle used on the command line (e.g. "cachesize").
	ID string
	// Figure names the paper figure the sweep reproduces.
	Figure string
	// Title describes the sweep.
	Title string
	// Param is the swept parameter's display name.
	Param string
	// Values are the swept parameter values.
	Values []float64
	// Schemes are the protocols compared (strategy.Paper() by default).
	Schemes []core.Scheme
	// Apply sets the swept parameter on a config.
	Apply func(cfg *core.Config, value float64)
	// FormatValue renders a parameter value for the table.
	FormatValue func(value float64) string
}

// Point is one measured cell of a sweep. With replications, Results holds
// the replication mean and Spread the sample standard deviations.
type Point struct {
	Value   float64
	Scheme  core.Scheme
	Results core.Results
	// Reps is the number of replications aggregated into this cell (0 and
	// 1 both mean a single run).
	Reps int
	// Spread is the across-replication sample stddev of each reported
	// metric; nil for single runs.
	Spread *Spread
	// Runs are the replications' own results, in replication order.
	Runs []core.Results
}

// Options scales an experiment run.
type Options struct {
	// Base is the whole configuration every sweep cell starts from, seed
	// and request counts included; nil means core.DefaultConfig.
	Base *core.Config
	// Replications runs every sweep cell this many times with
	// deterministically derived seeds and reports mean ± sample stddev
	// (≤ 1 means a single run per cell).
	Replications int
	// Workers bounds the simulation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). Output is byte-identical for any value.
	Workers int
	// Progress, when set, receives a line per completed cell, always in
	// canonical cell order and from the calling goroutine.
	Progress func(string)
	// Journal, when set, records every completed replication durably and
	// makes the run crash-resumable: replications already journaled are
	// loaded instead of re-executed, and the resumed output is
	// byte-identical to an uninterrupted run (see internal/checkpoint).
	Journal *checkpoint.Journal
}

func (o Options) baseConfig() core.Config {
	if o.Base != nil {
		return *o.Base
	}
	return core.DefaultConfig()
}

// Tiny is the shrunken scenario of grococa-bench -tiny: 8 hosts, a
// 400-item catalog, and 4 warm-up and 8 measured requests per host, so a
// cell runs in milliseconds.
func Tiny() core.Config {
	cfg := core.DefaultConfig()
	cfg.NumClients = 8
	cfg.NData = 400
	cfg.AccessRange = 80
	cfg.CacheSize = 15
	cfg.WarmupRequests = 4
	cfg.MeasuredRequests = 8
	return cfg
}

// Run executes the sweep on the parallel replicated engine and returns one
// point per (value, scheme) cell, in canonical order — the same order, and
// for single replications the same bytes, as the historical sequential
// runner, regardless of Options.Workers.
func (e Experiment) Run(opts Options) ([]Point, error) {
	schemes := e.schemes()
	type cell struct{ vi, si int }
	cells := make([]cell, 0, len(e.Values)*len(schemes))
	for vi := range e.Values {
		for si := range schemes {
			cells = append(cells, cell{vi: vi, si: si})
		}
	}
	points := make([]Point, 0, len(cells))
	run := func(ci, rep int) (core.Results, error) {
		c := cells[ci]
		v, scheme := e.Values[c.vi], schemes[c.si]
		cfg := opts.baseConfig()
		cfg.Scheme = scheme
		e.Apply(&cfg, v)
		cfg.Seed = deriveSeed(cfg.Seed, e.ID, c.vi, scheme, rep)
		r, err := core.Run(cfg)
		if err != nil {
			return core.Results{}, fmt.Errorf("experiment %s (%s=%v, %v, rep %d): %w", e.ID, e.Param, v, scheme, rep, err)
		}
		return r, nil
	}
	onCell := func(ci int, rs []core.Results) {
		c := cells[ci]
		p := aggregate(e.Values[c.vi], schemes[c.si], rs)
		points = append(points, p)
		if opts.Progress != nil {
			line := fmt.Sprintf("%s %s=%s %v", e.ID, e.Param, e.format(p.Value), p.Results)
			if p.Reps > 1 {
				line += fmt.Sprintf(" (reps=%d)", p.Reps)
			}
			opts.Progress(line)
		}
	}
	keyFor := func(ci, rep int) string {
		c := cells[ci]
		return fmt.Sprintf("done/%s/%d/%d/%d", e.ID, c.vi, int(schemes[c.si]), rep)
	}
	if err := PoolJournaled(len(cells), opts.Replications, opts.Workers, opts.Journal, keyFor, run, onCell); err != nil {
		return nil, err
	}
	return points, nil
}

// schemes returns the sweep's scheme columns, strategy.Paper() unless
// Schemes names others.
func (e Experiment) schemes() []core.Scheme {
	if len(e.Schemes) == 0 {
		return strategy.Paper()
	}
	return e.Schemes
}

func (e Experiment) format(v float64) string {
	if e.FormatValue != nil {
		return e.FormatValue(v)
	}
	return strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.2f", v), "0"), ".")
}

// Table renders the measured points as the four-metric table of the paper's
// figures. Replicated sweeps switch to mean±sd cells with a reps column;
// single-run sweeps keep the historical byte layout.
func (e Experiment) Table(points []Point) string {
	for _, p := range points {
		if p.Spread != nil {
			return e.replicatedTable(points)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", e.Figure, e.Title, e.Param)
	// The failure column appears only when some cell has failures (the
	// default full-coverage setting never fails).
	showFail := false
	for _, p := range points {
		if p.Results.FailureRatio > 0 {
			showFail = true
			break
		}
	}
	failHeader := ""
	if showFail {
		failHeader = "    fail%"
	}
	fmt.Fprintf(&b, "%-10s %-8s %12s %12s %8s %8s%s %14s %12s\n",
		e.Param, "scheme", "latency(ms)", "server-req%", "LCH%", "GCH%", failHeader, "power/GCH(µWs)", "energy(J)")
	for _, p := range points {
		r := p.Results
		powerPerGCH := "-"
		if r.GlobalHitRatio > 0 {
			powerPerGCH = fmt.Sprintf("%.0f", r.EnergyPerGCH)
		}
		if showFail {
			fmt.Fprintf(&b, "%-10s %-8s %12.2f %12.1f %8.1f %8.1f %8.1f %14s %12.2f\n",
				e.format(p.Value), r.Scheme,
				float64(r.MeanLatency)/float64(time.Millisecond),
				100*r.ServerRequestRatio,
				100*r.LocalHitRatio,
				100*r.GlobalHitRatio,
				100*r.FailureRatio,
				powerPerGCH,
				r.TotalEnergy/1e6,
			)
			continue
		}
		fmt.Fprintf(&b, "%-10s %-8s %12.2f %12.1f %8.1f %8.1f %14s %12.2f\n",
			e.format(p.Value), r.Scheme,
			float64(r.MeanLatency)/float64(time.Millisecond),
			100*r.ServerRequestRatio,
			100*r.LocalHitRatio,
			100*r.GlobalHitRatio,
			powerPerGCH,
			r.TotalEnergy/1e6,
		)
	}
	return b.String()
}

// replicatedTable renders mean±sd cells: every metric column shows the
// replication mean followed by the sample standard deviation.
func (e Experiment) replicatedTable(points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s), mean±sd over replications\n", e.Figure, e.Title, e.Param)
	showFail := false
	for _, p := range points {
		if p.Results.FailureRatio > 0 {
			showFail = true
			break
		}
	}
	failHeader := ""
	if showFail {
		failHeader = "        fail%"
	}
	fmt.Fprintf(&b, "%-10s %-8s %4s %16s %14s %12s %12s%s %16s %14s\n",
		e.Param, "scheme", "reps", "latency(ms)", "server-req%", "LCH%", "GCH%", failHeader, "power/GCH(µWs)", "energy(J)")
	meanSD := func(mean, sd float64, prec int) string {
		return fmt.Sprintf("%.*f±%.*f", prec, mean, prec, sd)
	}
	for _, p := range points {
		r := p.Results
		sp := p.Spread
		if sp == nil {
			sp = &Spread{}
		}
		reps := p.Reps
		if reps < 1 {
			reps = 1
		}
		powerPerGCH := "-"
		if r.GlobalHitRatio > 0 {
			powerPerGCH = meanSD(r.EnergyPerGCH, sp.EnergyPerGCH, 0)
		}
		fail := ""
		if showFail {
			fail = " " + fmt.Sprintf("%12s", meanSD(100*r.FailureRatio, 100*sp.FailureRatio, 1))
		}
		fmt.Fprintf(&b, "%-10s %-8s %4d %16s %14s %12s %12s%s %16s %14s\n",
			e.format(p.Value), r.Scheme, reps,
			meanSD(float64(r.MeanLatency)/float64(time.Millisecond), sp.LatencyMS, 2),
			meanSD(100*r.ServerRequestRatio, 100*sp.ServerReqRatio, 1),
			meanSD(100*r.LocalHitRatio, 100*sp.LocalHitRatio, 1),
			meanSD(100*r.GlobalHitRatio, 100*sp.GlobalHitRatio, 1),
			fail,
			powerPerGCH,
			meanSD(r.TotalEnergy/1e6, sp.TotalEnergyJ, 2),
		)
	}
	return b.String()
}

func formatInt(v float64) string { return fmt.Sprintf("%.0f", v) }

// All returns the seven figure experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{
			ID:     "cachesize",
			Figure: "Fig 2",
			Title:  "effect of cache size on system performance",
			Param:  "CacheSize",
			Values: []float64{50, 100, 150, 200, 250},
			Apply: func(cfg *core.Config, v float64) {
				cfg.CacheSize = int(v)
				// The paper measures after all caches are full; make sure
				// the warm-up is long enough to fill the largest caches.
				if min := int(2.5 * v); cfg.WarmupRequests < min {
					cfg.WarmupRequests = min
				}
			},
			FormatValue: formatInt,
		},
		{
			ID:     "skew",
			Figure: "Fig 3",
			Title:  "effect of access skewness on system performance",
			Param:  "theta",
			Values: []float64{0, 0.25, 0.5, 0.75, 1},
			Apply: func(cfg *core.Config, v float64) {
				cfg.Zipf = v
			},
		},
		{
			ID:     "accessrange",
			Figure: "Fig 4",
			Title:  "effect of access range on system performance",
			Param:  "AccessRange",
			Values: []float64{100, 250, 500, 750, 1000},
			Apply: func(cfg *core.Config, v float64) {
				cfg.AccessRange = int(v)
				// A base catalog smaller than the swept range (Tiny's
				// 400 items) grows to hold it; the paper's 10,000 items
				// never need to.
				if cfg.NData < cfg.AccessRange {
					cfg.NData = cfg.AccessRange
				}
			},
			FormatValue: formatInt,
		},
		{
			ID:     "groupsize",
			Figure: "Fig 5",
			Title:  "effect of motion group size on system performance",
			Param:  "GroupSize",
			Values: []float64{1, 5, 10, 15, 20, 25},
			Apply: func(cfg *core.Config, v float64) {
				cfg.GroupSize = int(v)
			},
			FormatValue: formatInt,
		},
		{
			ID:     "updaterate",
			Figure: "Fig 6",
			Title:  "effect of data item update rate on system performance",
			Param:  "UpdateRate",
			Values: []float64{0, 1, 5, 10, 50, 100},
			Apply: func(cfg *core.Config, v float64) {
				cfg.DataUpdateRate = v
			},
			FormatValue: formatInt,
		},
		{
			ID:     "clients",
			Figure: "Fig 7",
			Title:  "effect of number of mobile hosts on system performance",
			Param:  "NumClients",
			Values: []float64{50, 100, 150, 200, 250, 300},
			Apply: func(cfg *core.Config, v float64) {
				cfg.NumClients = int(v)
			},
			FormatValue: formatInt,
		},
		{
			ID:     "disconnect",
			Figure: "Fig 8",
			Title:  "effect of client disconnection on system performance",
			Param:  "P_disc",
			Values: []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3},
			Apply: func(cfg *core.Config, v float64) {
				cfg.DiscProb = v
			},
		},
	}
}

// Lookup finds an experiment by its command-line ID among the figure
// sweeps and the extensions.
func Lookup(id string) (Experiment, bool) {
	for _, e := range append(All(), Extensions()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Ablation is one GroCoca design-choice switch evaluated at the default
// operating point.
type Ablation struct {
	ID    string
	Title string
	Apply func(cfg *core.Config)
}

// Ablations returns the design-choice sweep of DESIGN.md.
func Ablations() []Ablation {
	return []Ablation{
		{ID: "full", Title: "GroCoca, all mechanisms on", Apply: func(*core.Config) {}},
		{ID: "nofilter", Title: "without signature filtering", Apply: func(c *core.Config) { c.DisableFilter = true }},
		{ID: "noadmission", Title: "without cooperative admission control", Apply: func(c *core.Config) { c.DisableAdmission = true }},
		{ID: "nocoopreplace", Title: "without cooperative replacement", Apply: func(c *core.Config) { c.DisableCoopReplace = true }},
		{ID: "nocompression", Title: "without signature compression", Apply: func(c *core.Config) { c.DisableCompression = true }},
		{ID: "fixedtimeout", Title: "fixed 20ms timeout instead of adaptive", Apply: func(c *core.Config) { c.FixedTimeout = 20 * time.Millisecond }},
	}
}

// AblationExperiment returns the ablation suite as one sweep over the
// GroCoca scheme whose values index Ablations(), so the ablations' seeds,
// journal keys and replication means are a sweep cell's.
func AblationExperiment() Experiment {
	abls := Ablations()
	values := make([]float64, len(abls))
	for i := range values {
		values[i] = float64(i)
	}
	return Experiment{
		ID:          "ablations",
		Figure:      "Ablations",
		Param:       "variant",
		Values:      values,
		Schemes:     []core.Scheme{core.SchemeGroCoca},
		Apply:       func(cfg *core.Config, v float64) { abls[int(v)].Apply(cfg) },
		FormatValue: func(v float64) string { return abls[int(v)].ID },
	}
}

// AblationTable renders AblationExperiment's points.
func AblationTable(points []Point) string {
	abls := Ablations()
	var b strings.Builder
	fmt.Fprintf(&b, "GroCoca ablations (default operating point)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %8s %8s %14s %12s %12s\n",
		"variant", "latency(ms)", "server-req%", "LCH%", "GCH%", "power/GCH(µWs)", "energy(J)", "sig-KB")
	for _, p := range points {
		r := p.Results
		fmt.Fprintf(&b, "%-14s %12.2f %12.1f %8.1f %8.1f %14.0f %12.2f %12.1f\n",
			abls[int(p.Value)].ID,
			float64(r.MeanLatency)/float64(time.Millisecond),
			100*r.ServerRequestRatio,
			100*r.LocalHitRatio,
			100*r.GlobalHitRatio,
			r.EnergyPerGCH,
			r.TotalEnergy/1e6,
			float64(r.Aux.SigBytes)/1024,
		)
	}
	return b.String()
}
