// Command grococa-bench regenerates the paper's evaluation tables: one
// parameter sweep per figure (Figures 2–8), each comparing SC, COCA and
// GroCoca on access latency, server request ratio, local/global cache hit
// ratios, and power per global cache hit, plus the GroCoca ablation suite.
//
// Examples:
//
//	grococa-bench -exp all                 # every figure (long)
//	grococa-bench -exp cachesize           # Fig 2 only
//	grococa-bench -exp ablations           # design-choice ablations
//	grococa-bench -exp clients -warmup 150 -requests 250   # paper scale
//	grococa-bench -exp skew -reps 8 -parallel 0            # mean±sd over 8 replications,
//	                                                       # all cells fanned out to all cores
//	grococa-bench -exp cachesize -schemes grococa,popularity,hintlru
//	                                       # compare extension schemes on Fig 2's sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resilience"
)

// wallClock is the injectable wall-time source; command tests may freeze
// it with clock.Fixed.
var wallClock clock.Clock = clock.System{}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grococa-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("grococa-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, ablations, extensions, or one of cachesize, skew, accessrange, groupsize, updaterate, clients, disconnect, servicearea, hopdist")
	seed := fs.Int64("seed", 1, "random seed")
	warmup := fs.Int("warmup", 0, "warm-up requests per host (unset keeps the base scenario's)")
	requests := fs.Int("requests", 0, "measured requests per host (unset keeps the base scenario's)")
	reps := fs.Int("reps", 1, "replications per sweep cell (deterministically derived seeds; > 1 adds mean±sd columns)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); output is identical for any value")
	tiny := fs.Bool("tiny", false, "shrink the scenario for smoke runs (8 clients, 400 items)")
	brute := fs.Bool("brute", false, "disable the medium's spatial index and use pairwise O(N^2) reachability scans (A/B verification; results are byte-identical)")
	resil := fs.Bool("resilience", false, "run every sweep cell under the default resilience policy (retry budgets, MSS-link breaker, hedging, serve-stale)")
	quiet := fs.Bool("q", false, "suppress per-cell progress lines")
	csv := fs.Bool("csv", false, "emit CSV rows instead of aligned tables")
	resume := fs.String("resume", "", "journal completed cells in this directory and resume an interrupted run from it (output stays byte-identical)")
	schemesFlag := fs.String("schemes", "",
		"comma-separated scheme columns ("+strings.Join(core.SchemeFlags(), ", ")+"); empty keeps each experiment's default trio")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", *reps)
	}
	var schemes []core.Scheme
	if *schemesFlag != "" {
		for _, name := range strings.Split(*schemesFlag, ",") {
			s, err := core.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			schemes = append(schemes, s)
		}
	}
	base := core.DefaultConfig()
	if *tiny {
		base = experiments.Tiny()
	}
	base.Seed = *seed
	// A count is written only when its flag is set, so -warmup 0 means no
	// warm-up; Config.Validate rejects the counts no run can use.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warmup":
			base.WarmupRequests = *warmup
		case "requests":
			base.MeasuredRequests = *requests
		}
	})
	base.BruteForceReachability = *brute
	if *resil {
		base.Resilience = resilience.DefaultPolicy()
	}
	opts := experiments.Options{Base: &base, Replications: *reps, Workers: *parallel}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *resume != "" {
		// The meta record binds the journal to every flag that shapes the
		// result set, with the request counts the run uses, so a resume
		// with different parameters is refused instead of silently mixing
		// runs.
		meta := fmt.Sprintf("grococa-bench exp=%s seed=%d warmup=%d requests=%d reps=%d tiny=%v brute=%v resilience=%v schemes=%s",
			*exp, *seed, base.WarmupRequests, base.MeasuredRequests, *reps, *tiny, *brute, *resil, *schemesFlag)
		jr, err := checkpoint.OpenJournal(*resume, []byte(meta))
		if err != nil {
			return err
		}
		defer func() { _ = jr.Close() }()
		opts.Journal = jr
	}

	runOne := func(e experiments.Experiment) error {
		if schemes != nil {
			e.Schemes = schemes
		}
		return runSweep(e, opts, *csv, e.Table)
	}
	// The ablations ignore -schemes: every variant is a GroCoca switch.
	runAblations := func() error {
		return runSweep(experiments.AblationExperiment(), opts, *csv, experiments.AblationTable)
	}

	start := wallClock.Now()
	switch *exp {
	case "all":
		for _, e := range experiments.All() {
			if err := runOne(e); err != nil {
				return err
			}
		}
		if err := runAblations(); err != nil {
			return err
		}
	case "extensions":
		for _, e := range experiments.Extensions() {
			if err := runOne(e); err != nil {
				return err
			}
		}
	case "ablations":
		if err := runAblations(); err != nil {
			return err
		}
	default:
		e, ok := experiments.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		if err := runOne(e); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", clock.Since(wallClock, start).Round(time.Second))
	return nil
}

// runSweep runs e and prints its points as CSV, or as text through table.
func runSweep(e experiments.Experiment, opts experiments.Options, csv bool, table func([]experiments.Point) string) error {
	points, err := e.Run(opts)
	if err != nil {
		return err
	}
	if csv {
		fmt.Print(e.CSV(points))
	} else {
		fmt.Println(table(points))
	}
	return nil
}
