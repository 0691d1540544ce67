// Command grococa-chaos runs seeded adversarial campaigns against the
// caching schemes (the SC/COCA/GroCoca matrix by default; any listed
// scheme via -scheme) under the online invariant auditor: loss ramps,
// Gilbert–Elliott burst storms, scheduled MSS blackouts, crash churn, and
// their combination. Every violation is printed with the one-line command
// that replays the exact offending run; the exit status is nonzero when
// any invariant was breached.
//
// Examples:
//
//	grococa-chaos -seeds 20                       # full matrix, 20 seeds per cell
//	grococa-chaos -campaign burst-storm -seeds 5  # one campaign, all schemes
//	grococa-chaos -campaign blackout -scheme coca -seed 1 -seed-index 3
//	                                              # replay one run (the repro shape)
//	grococa-chaos -selftest -seeds 1              # must FAIL: proves the auditor
//	                                              # catches a seeded protocol bug
//	grococa-chaos -list                           # campaign catalog
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/core"
)

// wallClock is the injectable wall-time source; command tests may freeze
// it with clock.Fixed.
var wallClock clock.Clock = clock.System{}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grococa-chaos:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run executes the command and returns the process exit code: 0 for a
// clean matrix, 2 when violations were found.
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("grococa-chaos", flag.ContinueOnError)
	seeds := fs.Int("seeds", 5, "seed indices per (campaign, scheme) cell")
	seed := fs.Int64("seed", 1, "base seed of the campaign matrix")
	seedIndex := fs.Int("seed-index", -1, "replay exactly this seed index (repro mode; -1 = all)")
	campaign := fs.String("campaign", "", "run only this campaign (default: all; see -list)")
	scheme := fs.String("scheme", "",
		"run only this scheme: "+strings.Join(core.SchemeFlags(), ", ")+" (default: the sc/coca/grococa matrix)")
	parallel := fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); output is identical for any value")
	slo := fs.Duration("slo", 0, "recovery SLO: flag episodes not recovered within this duration (0 = report-only)")
	selfTest := fs.Bool("selftest", false, "inject a deliberate TTL-corruption bug; the run must report violations")
	resume := fs.String("resume", "", "journal completed runs in this directory and resume an interrupted matrix from it (output stays byte-identical)")
	list := fs.Bool("list", false, "print the campaign catalog and exit")
	verbose := fs.Bool("v", false, "print one line per run instead of only the cell table")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	if *list {
		for _, c := range chaos.Campaigns() {
			_, _ = fmt.Fprintf(out, "%-12s %s\n", c.Name, c.Description)
		}
		return 0, nil
	}
	if *seeds < 1 {
		return 1, fmt.Errorf("-seeds %d must be at least 1", *seeds)
	}
	opts := chaos.Options{
		BaseSeed: *seed,
		Seeds:    *seeds,
		Workers:  *parallel,
		SLO:      *slo,
		SelfTest: *selfTest,
	}
	if *seedIndex >= 0 {
		opts.Replay = true
		opts.SeedIndex = *seedIndex
	}
	if *campaign != "" {
		c, ok := chaos.CampaignByName(*campaign)
		if !ok {
			return 1, fmt.Errorf("unknown campaign %q (see -list)", *campaign)
		}
		opts.Campaigns = []chaos.Campaign{c}
	}
	if *scheme != "" {
		s, err := core.ParseScheme(*scheme)
		if err != nil {
			return 1, err
		}
		opts.Schemes = []core.Scheme{s}
	}
	if *verbose {
		opts.OnResult = func(r chaos.RunResult) {
			status := "clean"
			if n := r.Report.TotalViolations(); n > 0 {
				status = fmt.Sprintf("%d VIOLATIONS", n)
			} else if !r.Results.Completed {
				status = "horizon-expired"
			}
			_, _ = fmt.Fprintf(out, "%-12s %-8s seed-index=%-3d seed=%-20d %s\n",
				r.Campaign, r.Scheme, r.SeedIndex, r.Seed, status)
		}
	}

	if *resume != "" {
		// The meta record binds the journal to every flag that shapes the
		// result set (-v and -parallel only shape rendering and scheduling),
		// so a resume with different parameters is refused instead of
		// silently mixing runs.
		meta := fmt.Sprintf("grococa-chaos seed=%d seeds=%d seed-index=%d campaign=%s scheme=%s slo=%v selftest=%v",
			*seed, *seeds, *seedIndex, *campaign, *scheme, *slo, *selfTest)
		jr, err := checkpoint.OpenJournal(*resume, []byte(meta))
		if err != nil {
			return 1, err
		}
		defer func() { _ = jr.Close() }()
		opts.Journal = jr
	}

	start := wallClock.Now()
	sum, err := chaos.Run(opts)
	if err != nil {
		return 1, err
	}
	printSummary(out, sum)
	fmt.Fprintf(os.Stderr, "total wall time: %v\n", clock.Since(wallClock, start).Round(time.Millisecond))
	if !sum.Clean() {
		return 2, nil
	}
	return 0, nil
}

// printSummary renders the cell table, then every violation with its repro
// command. The output depends only on the summary, which is canonical —
// byte-identical across -parallel values.
func printSummary(out io.Writer, sum chaos.Summary) {
	_, _ = fmt.Fprintf(out, "%-12s %-8s %5s %8s %5s %7s %8s %6s %10s %10s %9s %12s\n",
		"campaign", "scheme", "runs", "expired", "viol", "stale", "degraded", "hedges", "recovered", "unrecov", "censored", "mean-recov")
	for _, r := range sum.Rows {
		_, _ = fmt.Fprintf(out, "%-12s %-8s %5d %8d %5d %6.1f%% %8d %6d %10d %10d %9d %12v\n",
			r.Campaign, r.Scheme, r.Runs, r.Expired, r.Violations, 100*r.StaleRatio,
			r.Degraded, r.Hedges, r.Recovered, r.Unrecovered, r.Censored, r.MeanRecovery.Round(time.Millisecond))
	}
	_, _ = fmt.Fprintf(out, "\n%d runs, %d clean, %d violations",
		sum.Runs, sum.CleanRuns, len(sum.Violations)+sum.DroppedViolations)
	if sum.DroppedViolations > 0 {
		_, _ = fmt.Fprintf(out, " (%d past the per-run cap)", sum.DroppedViolations)
	}
	_, _ = fmt.Fprintln(out)
	for _, v := range sum.Violations {
		_, _ = fmt.Fprintln(out, " ", v)
	}
}
