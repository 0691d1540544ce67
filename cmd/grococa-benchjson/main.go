// Command grococa-benchjson converts `go test -bench -benchmem` output on
// stdin into canonical JSON on stdout: benchmarks sorted by qualified name,
// with the derived ops/sec rate alongside ns/op, B/op and allocs/op. The
// output carries no timestamps or machine identifiers, so a committed
// baseline (BENCH_seed.json, see `make bench-baseline`) diffs cleanly
// against a regenerated one.
//
// Example:
//
//	go test -run '^$' -bench . -benchmem ./internal/sim/ | grococa-benchjson
//
// With -compare, the tool becomes a regression gate instead of a converter:
// fresh `go test -bench` output on stdin is compared against a base file of
// the same raw output, and any benchmark present on both sides whose median
// ops/sec dropped by more than -max-regress (fractional, default 0.30)
// fails the run. Either side may hold several runs of a benchmark, as
// `-count` or repeated invocations produce; each row is gated on its
// per-side median. Next to each compared row's change it prints the base
// side's own spread, its slowest and fastest run relative to its median, so
// a reader can tell a change from the row's run-to-run noise. Benchmarks
// that exist on only one side are reported but never fail the gate, so
// adding a benchmark needs no change to the gate.
// `make bench-check` feeds it alternating runs of a base revision and the
// working tree on one host.
//
//	go test -run '^$' -bench . -benchmem ./internal/network/ > base.txt
//	# ... change the code ...
//	go test -run '^$' -bench . -benchmem ./internal/network/ | \
//	    grococa-benchjson -compare base.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the package-qualified benchmark name; Procs the GOMAXPROCS
	// suffix of the raw line.
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp and OpsPerSec are the time per operation and its reciprocal
	// rate (events/sec for the kernel-dispatch and medium benchmarks).
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// BytesPerOp and AllocsPerOp are the -benchmem columns (zero when the
	// input was produced without -benchmem).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Baseline is the output document.
type Baseline struct {
	Format     int         `json:"format"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "raw go test -bench output to gate against instead of emitting JSON")
	maxRegress := flag.Float64("max-regress", 0.30, "maximum tolerated fractional ops/sec drop vs the base")
	flag.Parse()
	var err error
	if *compare != "" {
		err = runCompare(os.Stdin, os.Stdout, *compare, *maxRegress)
	} else {
		err = run(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "grococa-benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer) error {
	benches, err := parse(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (want `go test -bench` output)")
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(Baseline{Format: 1, Benchmarks: benches})
}

// runCompare parses fresh bench output on in and gates its per-benchmark
// median ops/sec against the base file's: a drop beyond maxRegress on any
// benchmark present on both sides is an error. One line per compared
// benchmark goes to out.
func runCompare(in io.Reader, out io.Writer, basePath string, maxRegress float64) error {
	if maxRegress < 0 {
		return fmt.Errorf("-max-regress %v must be non-negative", maxRegress)
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	base, err := parse(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("base %s: %w", basePath, err)
	}
	fresh, err := parse(in)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (want `go test -bench` output)")
	}
	baseBy, freshBy := summarize(base), summarize(fresh)
	names := make([]string, 0, len(freshBy))
	for name := range freshBy {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	compared := 0
	for _, name := range names {
		cur := freshBy[name].median
		refRuns, ok := baseBy[name]
		ref := refRuns.median
		if !ok {
			_, _ = fmt.Fprintf(out, "  new   %-60s %12.0f ops/sec (not in base, informational)\n", name, cur)
			continue
		}
		delete(baseBy, name)
		if ref <= 0 {
			continue
		}
		compared++
		change := cur/ref - 1
		status := "ok"
		if change < -maxRegress {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ops/sec (%+.1f%%, limit -%.0f%%)",
				name, ref, cur, 100*change, 100*maxRegress))
		}
		_, _ = fmt.Fprintf(out, "  %-5s %-60s %12.0f -> %12.0f ops/sec (%+.1f%%; base spread %+.1f%% to %+.1f%%)\n",
			status, name, ref, cur, 100*change, 100*(refRuns.slowest/ref-1), 100*(refRuns.fastest/ref-1))
	}
	var gone []string
	for name := range baseBy {
		gone = append(gone, name)
	}
	sort.Strings(gone)
	for _, name := range gone {
		_, _ = fmt.Fprintf(out, "  gone  %-60s (in base, not on stdin, informational)\n", name)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark on stdin matched the base %s", basePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%%:\n  %s",
			len(failures), 100*maxRegress, strings.Join(failures, "\n  "))
	}
	_, _ = fmt.Fprintf(out, "bench-compare ok: %d benchmark(s) within %.0f%% of %s\n", compared, 100*maxRegress, basePath)
	return nil
}

// rates summarises one benchmark's runs on one side, in ops/sec.
type rates struct {
	median, slowest, fastest float64
}

// summarize maps each benchmark name to the median, lowest and highest
// ops/sec of its runs.
func summarize(benches []Benchmark) map[string]rates {
	runs := make(map[string][]float64)
	for _, b := range benches {
		runs[b.Name] = append(runs[b.Name], b.OpsPerSec)
	}
	out := make(map[string]rates, len(runs))
	for name, r := range runs {
		sort.Float64s(r)
		n := len(r)
		out[name] = rates{median: (r[(n-1)/2] + r[n/2]) / 2, slowest: r[0], fastest: r[n-1]}
	}
	return out
}

// parse walks the benchmark output, tracking `pkg:` headers to qualify
// names and decoding each Benchmark line's value/unit pairs.
func parse(in io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "pkg:" && len(fields) > 1 {
			pkg = fields[1]
			continue
		}
		if !strings.HasPrefix(fields[0], "Benchmark") || len(fields) < 2 {
			continue
		}
		b, err := parseLine(pkg, fields)
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// parseLine decodes one `BenchmarkName-P  N  v unit  v unit ...` line.
func parseLine(pkg string, fields []string) (Benchmark, error) {
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	if pkg != "" {
		name = pkg + "." + name
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q: %w", fields[i], err)
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			if v > 0 {
				b.OpsPerSec = 1e9 / v
			}
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		}
	}
	return b, nil
}
