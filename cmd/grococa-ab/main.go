// Command grococa-ab runs the whole-run benchmark as an A/B between a base
// revision and the working tree. It unpacks `git archive <base>` under
// .bench_build/, then runs the benchmark command BENCHMARK.json declares
// (`bash cellbench/run.sh`, for its run_seconds) alternately in the base
// tree and the working tree, flipping which side runs first every pair,
// and prints one JSON object: for each end-to-end metric BENCHMARK.json
// declares, each side's median and quartiles and how many pairs the
// working tree won.
//
// Run it from the repository root:
//
//	go run ./cmd/grococa-ab -base HEAD~1 -workload sc-baseline -seed 1 -pairs 10
//
// or `make cellbench-ab BASE=<rev> WORKLOAD=<w> SEED=<s> PAIRS=<n>`. Every
// run prints its Results digests; digests_match reports whether all runs
// of both sides agreed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "grococa-ab:", err)
		os.Exit(1)
	}
}

// options are the command-line settings.
type options struct {
	base     string
	workload string
	seed     int64
	pairs    int
}

func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("grococa-ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.base, "base", "", "base revision to compare the working tree against (required)")
	fs.StringVar(&o.workload, "workload", "sc-baseline", "cellbench workload")
	fs.Int64Var(&o.seed, "seed", 1, "cellbench seed")
	fs.IntVar(&o.pairs, "pairs", 10, "number of base/working-tree run pairs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.base == "" || o.pairs < 1 {
		return errors.New("-base is required, and -pairs must be positive")
	}
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	sha, err := output("git", "rev-parse", "--verify", o.base+"^{commit}")
	if err != nil {
		return err
	}
	baseDir, err := unpack(sha)
	if err != nil {
		return err
	}
	var base, work []runResult
	for i := 0; i < o.pairs; i++ {
		sides := []string{baseDir, "."}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, dir := range sides {
			_, _ = fmt.Fprintf(stderr, "pair %d/%d: %s\n", i+1, o.pairs, dir) // progress only
			r, err := bench(dir, decl, o)
			if err != nil {
				return err
			}
			if dir == baseDir {
				base = append(base, r)
			} else {
				work = append(work, r)
			}
		}
	}
	rep := compare(decl.EndToEnd, base, work)
	rep.Base, rep.Workload, rep.Seed, rep.Seconds = sha, o.workload, o.seed, decl.RunSeconds
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declaration is the part of BENCHMARK.json the A/B reads.
type declaration struct {
	Command    []string     `json:"command"`
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
}

// readDecl reads a benchmark declaration.
func readDecl(path string) (declaration, error) {
	var decl declaration
	data, err := os.ReadFile(path)
	if err != nil {
		return decl, err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return decl, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.Command) == 0 || decl.RunSeconds < 1 {
		return decl, fmt.Errorf("%s: no command or run_seconds", path)
	}
	return decl, nil
}

// output runs a command and returns its trimmed standard output.
func output(name string, args ...string) (string, error) {
	out, err := exec.Command(name, args...).Output()
	if err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// unpack extracts revision sha under .bench_build/ once and returns the
// directory.
func unpack(sha string) (string, error) {
	dir := filepath.Join(".bench_build", "ab-"+sha[:12])
	if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", sha, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("unpack %s: %w", sha, err)
	}
	return dir, nil
}

// runResult is what one cellbench run reports.
type runResult struct {
	Digests string
	Failed  int
	Metrics map[string]float64
}

// bench runs the declared benchmark command once, untraced, in dir.
func bench(dir string, decl declaration, o options) (runResult, error) {
	args := append(slices.Clone(decl.Command[1:]), "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(decl.RunSeconds), "--trace", "0")
	cmd := exec.Command(decl.Command[0], args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("benchmark in %s: %w", dir, err)
	}
	return parseRun(string(out))
}

// parseRun reads a cellbench run's output: the Results digests from its
// first line and the metrics from its last line, a JSON object.
func parseRun(out string) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	_, digests, ok := strings.Cut(lines[0], "results digests ")
	if !ok {
		return runResult{}, fmt.Errorf("cellbench output has no results digests: %q", lines[0])
	}
	var last struct {
		Failed  int `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		return runResult{}, fmt.Errorf("cellbench output's last line: %w", err)
	}
	r := runResult{Digests: digests, Failed: last.Failed, Metrics: map[string]float64{}}
	for name, m := range last.Metrics {
		r.Metrics[name] = m.Value
	}
	return r, nil
}

// report is the command's output.
type report struct {
	Base         string             `json:"base"`
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      int                `json:"seconds"`
	Pairs        int                `json:"pairs"`
	DigestsMatch bool               `json:"digests_match"`
	Failed       map[string]int     `json:"failed"`
	Metrics      map[string]summary `json:"metrics"`
}

// summary compares one metric across the pairs.
type summary struct {
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Base   quartile `json:"base"`
	Work   quartile `json:"work"`
	// Wins counts the pairs in which the working tree's run was better.
	Wins int `json:"wins"`
	// GapOverBaseIQR is |median gap| / base IQR; above 1 the medians
	// differ by more than the base's spread.
	GapOverBaseIQR float64 `json:"gap_over_base_iqr"`
}

// quartile is a sample's median and Tukey hinges.
type quartile struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// compare summarises paired runs: base[i] and work[i] ran back to back.
func compare(metrics []metricSpec, base, work []runResult) report {
	rep := report{
		Pairs:        len(base),
		DigestsMatch: true,
		Failed:       map[string]int{"base": 0, "work": 0},
		Metrics:      map[string]summary{},
	}
	for _, r := range append(slices.Clone(base), work...) {
		rep.DigestsMatch = rep.DigestsMatch && r.Digests == base[0].Digests
	}
	for i := range base {
		rep.Failed["base"] += base[i].Failed
		rep.Failed["work"] += work[i].Failed
	}
	for _, m := range metrics {
		var bv, wv []float64
		s := summary{Unit: m.Unit, Better: m.Better}
		for i := range base {
			b, w := base[i].Metrics[m.Name], work[i].Metrics[m.Name]
			bv, wv = append(bv, b), append(wv, w)
			if (m.Better == "lower" && w < b) || (m.Better == "higher" && w > b) {
				s.Wins++
			}
		}
		s.Base, s.Work = quartiles(bv), quartiles(wv)
		gap := s.Work.Median - s.Base.Median
		if gap < 0 {
			gap = -gap
		}
		if iqr := s.Base.Q3 - s.Base.Q1; iqr > 0 {
			s.GapOverBaseIQR = gap / iqr
		}
		rep.Metrics[m.Name] = s
	}
	return rep
}

// quartiles returns the median of xs and the medians of its lower and
// upper halves (the middle value, for odd lengths, belongs to neither); a
// single value is all three.
func quartiles(xs []float64) quartile {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		m := median(s)
		return quartile{Q1: m, Median: m, Q3: m}
	}
	return quartile{Q1: median(s[:n/2]), Median: median(s), Q3: median(s[(n+1)/2:])}
}

// median returns the median of sorted values, or the single value, or 0.
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
