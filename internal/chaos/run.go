package chaos

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/strategy"
)

// selfTestAt is when the -selftest mutation fires: late enough that caches
// hold entries, early enough that plenty of hits follow.
const selfTestAt = 20 * time.Second

// Options parameterises a campaign matrix run.
type Options struct {
	// BaseSeed is the matrix's root seed, used as given (0 is a seed).
	BaseSeed int64
	// Seeds is the number of seed indices per cell; zero selects 5.
	Seeds int
	// Replay, when true, runs exactly one seed index (SeedIndex) per
	// cell — the repro mode. False runs indices 0..Seeds-1.
	Replay    bool
	SeedIndex int
	// Campaigns and Schemes span the matrix; nil selects the defaults
	// (all campaigns × SC/COCA/GroCoca).
	Campaigns []Campaign
	Schemes   []core.Scheme
	// Workers bounds the worker pool; zero selects GOMAXPROCS.
	Workers int
	// SLO, when positive, makes recovery time a hard invariant (see
	// audit.Config.MaxRecovery). Zero keeps recovery report-only.
	SLO time.Duration
	// SelfTest injects a deliberate fault-handling bug — a mid-run event
	// inflating every cached entry's TTL outside the protocol — to prove
	// the auditor catches mutations. A self-test matrix must report
	// violations; a clean self-test means the auditor is broken.
	SelfTest bool
	// OnResult, when set, receives every run's result in canonical
	// (campaign, scheme, seed index) order regardless of worker count.
	OnResult func(RunResult)
	// Journal, when non-nil, records every completed run durably so a
	// killed campaign matrix resumed against the same journal re-executes
	// only the missing runs and reports byte-identically.
	Journal *checkpoint.Journal
}

// withDefaults fills the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.Seeds == 0 {
		o.Seeds = 5
	}
	if o.Campaigns == nil {
		o.Campaigns = Campaigns()
	}
	if o.Schemes == nil {
		o.Schemes = strategy.Paper()
	}
	return o
}

// RunResult is one audited campaign run.
type RunResult struct {
	// Campaign, Scheme and SeedIndex locate the run in the matrix; Seed
	// is the derived simulation seed and Repro the replay command.
	Campaign  string
	Scheme    core.Scheme
	SeedIndex int
	Seed      int64
	Repro     string
	// Results are the simulation metrics, Report the auditor's verdict.
	Results core.Results
	Report  audit.Report
}

// Row aggregates one (campaign, scheme) cell of the matrix.
type Row struct {
	// Campaign and Scheme identify the cell.
	Campaign string
	Scheme   core.Scheme
	// Runs counts the cell's runs; Expired those that hit the safety
	// horizon; Violations the total invariant breaches.
	Runs       int
	Expired    int
	Violations int
	// StaleRatio is the mean ground-truth stale-serve ratio.
	StaleRatio float64
	// Degraded and Hedges sum the resilience layer's serve-stale hits and
	// hedged retrieves across the cell (zero without a policy).
	Degraded uint64
	Hedges   uint64
	// Recovered, Unrecovered and Censored sum the recovery episodes:
	// recovered within band, demonstrably past the SLO, and still open at
	// run end (too late to observe recovery either way).
	Recovered   int
	Unrecovered int
	Censored    int
	// MeanRecovery is the mean time-to-recover across the cell's
	// recovered episodes.
	MeanRecovery time.Duration
}

// Summary is the verdict of a whole campaign matrix.
type Summary struct {
	// Runs counts executed runs, CleanRuns those with zero violations.
	Runs      int
	CleanRuns int
	// Violations collects every recorded breach (each carries its repro
	// command); DroppedViolations counts breaches past the per-run caps.
	Violations        []audit.Violation
	DroppedViolations int
	// Rows holds the per-cell aggregates in canonical order.
	Rows []Row
}

// Clean reports whether the whole matrix ran without violations.
func (s Summary) Clean() bool {
	return len(s.Violations) == 0 && s.DroppedViolations == 0
}

// ReproCommand renders the one-line command that replays one run.
func ReproCommand(campaign string, scheme core.Scheme, baseSeed int64, seedIndex int, selfTest bool) string {
	cmd := fmt.Sprintf("go run ./cmd/grococa-chaos -campaign %s -scheme %s -seed %d -seed-index %d",
		campaign, strings.ToLower(scheme.String()), baseSeed, seedIndex)
	if selfTest {
		cmd += " -selftest"
	}
	return cmd
}

// runOne executes one audited campaign run. The parameter chain covers the
// campaign and seed index but deliberately not the scheme, so all schemes
// of a cell face the identical fault scenario.
func runOne(opts Options, c Campaign, scheme core.Scheme, seedIndex int) (RunResult, error) {
	p := NewParams(opts.BaseSeed, c.Name).Index(seedIndex)
	cfg := BaseConfig()
	cfg.Seed = p.Seed()
	c.Apply(p, &cfg)
	cfg.Scheme = scheme

	s, err := core.New(cfg)
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos %s/%v seed %d: %w", c.Name, scheme, seedIndex, err)
	}
	repro := ReproCommand(c.Name, scheme, opts.BaseSeed, seedIndex, opts.SelfTest)
	a := audit.Attach(s, audit.Config{Repro: repro, MaxRecovery: opts.SLO})
	if opts.SelfTest {
		s.Kernel().Schedule(selfTestAt, func() {
			for _, h := range s.Hosts() {
				h.Cache().Each(func(e *cache.Entry) {
					e.TTL += 1000 * time.Hour
				})
			}
		})
	}
	r, err := s.Run()
	if err != nil {
		return RunResult{}, fmt.Errorf("chaos %s/%v seed %d: %w", c.Name, scheme, seedIndex, err)
	}
	return RunResult{
		Campaign:  c.Name,
		Scheme:    scheme,
		SeedIndex: seedIndex,
		Seed:      cfg.Seed,
		Repro:     repro,
		Results:   r,
		Report:    a.Finish(r.Completed),
	}, nil
}

// Run executes the campaign matrix across the worker pool and returns the
// aggregated verdict. Results are collected — and OnResult invoked — in
// canonical (campaign, scheme, seed index) order, so the summary and any
// rendered output are byte-identical for every worker count.
func Run(opts Options) (Summary, error) {
	opts = opts.withDefaults()
	reps := opts.Seeds
	if opts.Replay {
		reps = 1
	}
	cells := len(opts.Campaigns) * len(opts.Schemes)
	var sum Summary
	keyFor := func(cell, rep int) string {
		c := opts.Campaigns[cell/len(opts.Schemes)]
		scheme := opts.Schemes[cell%len(opts.Schemes)]
		k := rep
		if opts.Replay {
			k = opts.SeedIndex
		}
		return fmt.Sprintf("done/%s/%d/%d", c.Name, int(scheme), k)
	}
	err := experiments.PoolJournaled(cells, reps, opts.Workers, opts.Journal, keyFor,
		func(cell, rep int) (RunResult, error) {
			c := opts.Campaigns[cell/len(opts.Schemes)]
			scheme := opts.Schemes[cell%len(opts.Schemes)]
			k := rep
			if opts.Replay {
				k = opts.SeedIndex
			}
			return runOne(opts, c, scheme, k)
		},
		func(cell int, rs []RunResult) {
			row := Row{
				Campaign: opts.Campaigns[cell/len(opts.Schemes)].Name,
				Scheme:   opts.Schemes[cell%len(opts.Schemes)],
			}
			var stale float64
			var recoverySum time.Duration
			for _, r := range rs {
				sum.Runs++
				row.Runs++
				if r.Report.Clean() {
					sum.CleanRuns++
				}
				if !r.Results.Completed {
					row.Expired++
				}
				sum.Violations = append(sum.Violations, r.Report.Violations...)
				sum.DroppedViolations += r.Report.DroppedViolations
				row.Violations += r.Report.TotalViolations()
				stale += r.Report.StaleRatio()
				row.Degraded += r.Report.DegradedServes
				row.Hedges += r.Report.Hedges
				for _, rec := range r.Report.Recovery {
					row.Recovered += rec.Recovered
					row.Unrecovered += rec.Unrecovered
					row.Censored += rec.Censored
					recoverySum += rec.TotalRecovery
				}
				if opts.OnResult != nil {
					opts.OnResult(r)
				}
			}
			if row.Runs > 0 {
				row.StaleRatio = stale / float64(row.Runs)
			}
			if row.Recovered > 0 {
				row.MeanRecovery = recoverySum / time.Duration(row.Recovered)
			}
			sum.Rows = append(sum.Rows, row)
		})
	if err != nil {
		return Summary{}, err
	}
	return sum, nil
}
