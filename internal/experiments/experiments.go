// Package experiments defines the paper's evaluation suite: one experiment
// per figure (Figures 2–8), each sweeping a single parameter across the
// three schemes and reporting the four metrics every figure plots — access
// latency, server request ratio, global cache hit ratio, and power per
// global cache hit — plus the ablation suite for GroCoca's design choices.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/stats"
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

// Point is one measured cell of a sweep.
type Point struct {
	Value  float64
	Scheme core.Scheme
	// Runs are the cell's replications, in replication order; a cell
	// holds at least one.
	Runs []core.Results
}

// Mean returns the replication mean of the quantities the renderers read:
// the Metrics, the request count, signature traffic and the scheme. Counts
// and the latency take the round-half-up integer mean, ratios and energies
// their float sum in replication order over the count, and the scheme is
// the first run's. A single run is returned whole.
func (p Point) Mean() core.Results {
	if len(p.Runs) == 1 {
		return p.Runs[0]
	}
	n := len(p.Runs)
	m := core.Results{Scheme: p.Runs[0].Scheme}
	var latency int64
	for _, r := range p.Runs {
		latency += int64(r.MeanLatency)
		m.Requests += r.Requests
		m.Aux.SigBytes += r.Aux.SigBytes
		m.LocalHitRatio += r.LocalHitRatio
		m.GlobalHitRatio += r.GlobalHitRatio
		m.ServerRequestRatio += r.ServerRequestRatio
		m.FailureRatio += r.FailureRatio
		m.TotalEnergy += r.TotalEnergy
		m.EnergyPerGCH += r.EnergyPerGCH
	}
	m.MeanLatency = time.Duration((latency + int64(n)/2) / int64(n))
	m.Requests = (m.Requests + uint64(n)/2) / uint64(n)
	m.Aux.SigBytes = (m.Aux.SigBytes + uint64(n)/2) / uint64(n)
	m.LocalHitRatio /= float64(n)
	m.GlobalHitRatio /= float64(n)
	m.ServerRequestRatio /= float64(n)
	m.FailureRatio /= float64(n)
	m.TotalEnergy /= float64(n)
	m.EnergyPerGCH /= float64(n)
	return m
}

// SD returns the sample standard deviation of m over the cell's runs, in
// m's CSV units; zero for a single run.
func (p Point) SD(m Metric) float64 {
	var w stats.Welford
	for _, r := range p.Runs {
		w.Add(m.Of(r))
	}
	return w.SampleStdDev()
}

// Metric is one quantity a sweep reports per cell: a column of the tables
// and the CSV, and an entry of grococa-sim's sd: line.
type Metric struct {
	// Of reads the metric off one run in the CSV's units: ms, a fraction,
	// µW·s or J.
	Of func(core.Results) float64
	// Header heads the table column. Width and RepWidth are its widths in
	// the single-run and the mean±sd layout, Prec its decimals, and
	// Percent prints the fraction as a percentage.
	Header          string
	Width, RepWidth int
	Prec            int
	Percent         bool
	// CSV and CSVSD name the value and sd columns, printed with CSVPrec
	// decimals.
	CSV, CSVSD string
	CSVPrec    int
	// Line formats the sd, in table units, on grococa-sim's sd: line; an
	// empty Line leaves the metric off it.
	Line string
	// Optional metrics get a table column only when some cell's mean is
	// above zero.
	Optional bool
	// Blank, when set, prints "-" for a cell whose mean it holds for.
	Blank func(core.Results) bool
}

// Display converts v from the CSV's units to the ones the tables and the
// sd: line print.
func (m Metric) Display(v float64) float64 {
	if m.Percent {
		return 100 * v
	}
	return v
}

// Metrics are the reported quantities, in column order: the four every
// figure of the paper plots (access latency, server request ratio, global
// cache hit ratio, power per global cache hit) with the local hit ratio,
// the failure ratio and the total energy.
var Metrics = []Metric{
	{Of: func(r core.Results) float64 { return float64(r.MeanLatency) / float64(time.Millisecond) },
		Header: "latency(ms)", Width: 12, RepWidth: 16, Prec: 2,
		CSV: "latency_ms", CSVSD: "latency_ms_sd", CSVPrec: 4, Line: "latency=%.3fms"},
	{Of: func(r core.Results) float64 { return r.ServerRequestRatio },
		Header: "server-req%", Width: 12, RepWidth: 14, Prec: 1, Percent: true,
		CSV: "server_req_ratio", CSVSD: "server_req_sd", CSVPrec: 4, Line: "server=%.2f%%"},
	{Of: func(r core.Results) float64 { return r.LocalHitRatio },
		Header: "LCH%", Width: 8, RepWidth: 12, Prec: 1, Percent: true,
		CSV: "lch_ratio", CSVSD: "lch_sd", CSVPrec: 4, Line: "LCH=%.2f%%"},
	{Of: func(r core.Results) float64 { return r.GlobalHitRatio },
		Header: "GCH%", Width: 8, RepWidth: 12, Prec: 1, Percent: true,
		CSV: "gch_ratio", CSVSD: "gch_sd", CSVPrec: 4, Line: "GCH=%.2f%%"},
	{Of: func(r core.Results) float64 { return r.FailureRatio },
		Header: "fail%", Width: 8, RepWidth: 12, Prec: 1, Percent: true,
		CSV: "failure_ratio", CSVSD: "failure_sd", CSVPrec: 4, Optional: true},
	{Of: func(r core.Results) float64 { return r.EnergyPerGCH },
		Header: "power/GCH(µWs)", Width: 14, RepWidth: 16, Prec: 0,
		CSV: "power_per_gch_uws", CSVSD: "power_per_gch_sd", CSVPrec: 1, Line: "power/GCH=%.0fµWs",
		Blank: func(r core.Results) bool { return !(r.GlobalHitRatio > 0) }},
	{Of: func(r core.Results) float64 { return r.TotalEnergy / 1e6 },
		Header: "energy(J)", Width: 12, RepWidth: 14, Prec: 2,
		CSV: "total_energy_j", CSVSD: "total_energy_j_sd", CSVPrec: 3, Line: "energy=%.3fJ"},
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
		p := Point{Value: e.Values[c.vi], Scheme: schemes[c.si], Runs: rs}
		points = append(points, p)
		if opts.Progress != nil {
			line := fmt.Sprintf("%s %s=%s %v", e.ID, e.Param, e.format(p.Value), p.Mean())
			if len(rs) > 1 {
				line += fmt.Sprintf(" (reps=%d)", len(rs))
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

// Table renders the measured points as the metric table of the paper's
// figures. A sweep with replications prints mean±sd cells and a reps
// column; a single-run sweep keeps the historical byte layout.
func (e Experiment) Table(points []Point) string {
	replicated := false
	means := make([]core.Results, len(points))
	for i, p := range points {
		replicated = replicated || len(p.Runs) > 1
		means[i] = p.Mean()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)", e.Figure, e.Title, e.Param)
	if replicated {
		b.WriteString(", mean±sd over replications")
	}
	fmt.Fprintf(&b, "\n%-10s %-8s", e.Param, "scheme")
	if replicated {
		fmt.Fprintf(&b, " %4s", "reps")
	}
	// The failure column appears only when some cell has failures (the
	// default full-coverage setting never fails).
	var metrics []Metric
	for _, m := range Metrics {
		if m.Optional && !slices.ContainsFunc(means, func(r core.Results) bool { return m.Of(r) > 0 }) {
			continue
		}
		if replicated {
			m.Width = m.RepWidth
		}
		metrics = append(metrics, m)
		fmt.Fprintf(&b, " %*s", m.Width, m.Header)
	}
	b.WriteByte('\n')
	for i, p := range points {
		fmt.Fprintf(&b, "%-10s %-8s", e.format(p.Value), means[i].Scheme)
		if replicated {
			fmt.Fprintf(&b, " %4d", len(p.Runs))
		}
		for _, m := range metrics {
			cell := "-"
			if m.Blank == nil || !m.Blank(means[i]) {
				cell = fmt.Sprintf("%.*f", m.Prec, m.Display(m.Of(means[i])))
				if replicated {
					cell += fmt.Sprintf("±%.*f", m.Prec, m.Display(p.SD(m)))
				}
			}
			fmt.Fprintf(&b, " %*s", m.Width, cell)
		}
		b.WriteByte('\n')
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

// AblationTable renders AblationExperiment's points: each variant's mean
// of the Metrics every table shows, printed as numbers even without
// global hits, and its signature traffic.
func AblationTable(points []Point) string {
	abls := Ablations()
	var b strings.Builder
	fmt.Fprintf(&b, "GroCoca ablations (default operating point)\n%-14s", "variant")
	for _, m := range Metrics {
		if !m.Optional {
			fmt.Fprintf(&b, " %*s", m.Width, m.Header)
		}
	}
	fmt.Fprintf(&b, " %12s\n", "sig-KB")
	for _, p := range points {
		r := p.Mean()
		fmt.Fprintf(&b, "%-14s", abls[int(p.Value)].ID)
		for _, m := range Metrics {
			if !m.Optional {
				fmt.Fprintf(&b, " %*.*f", m.Width, m.Prec, m.Display(m.Of(r)))
			}
		}
		fmt.Fprintf(&b, " %12.1f\n", float64(r.Aux.SigBytes)/1024)
	}
	return b.String()
}
