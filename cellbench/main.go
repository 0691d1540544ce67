// Command cellbench is the repository's whole-run benchmark. It builds and
// runs one simulation at a time through core.New and Simulation.Run. A
// cell is one pass over a workload's simulations (workloads.go); a run
// repeats identical cells, checks every simulation's output, and prints
// end-to-end metrics (--trace 0) or per-layer metrics from a CPU- and
// allocation-profiled cell (--trace 1). cellbench/spec.json records each
// workload's configuration, the held-out seed and which workload each
// layer metric should move.
//
// Run it from the repository root:
//
//	bash cellbench/run.sh --workload paper --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run manifest, every cell's
// measurements and the recorded spans go to a JSON file under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], workloads, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(1)
	}
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// Run settings.
const (
	// setupRuns is how many extra times a run builds the simulation just
	// to time core.New, which is too short to time once.
	setupRuns = 40
	// minCells is the fewest untraced cells a run measures.
	minCells = 2
	// traceMemProfileRate samples one allocation per 64 KiB, eight times
	// the runtime's default, in every cell of a traced run; the run's
	// trace.overhead therefore shows the CPU profiler's cost alone.
	traceMemProfileRate = 64 << 10
)

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("cellbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 35, "seconds to measure each workload for")
	fs.IntVar(&trace, "trace", 0, "1 to report per-layer metrics from a profiled cell")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "runs"), "directory for the run record")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.workload == "":
		return o, errors.New("--workload is required")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds %d must be at least 1", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run measures the selected workloads and prints one result line each.
func run(args []string, ws []workload, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	selected := ws
	if o.workload != "all" {
		w, err := findWorkload(ws, o.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if o.trace {
		runtime.MemProfileRate = traceMemProfileRate
	}
	tr := newTracer()
	record := runRecord{Manifest: newManifest(args, o)}
	for _, w := range selected {
		rep, err := runWorkload(w, o, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		record.Workloads = append(record.Workloads, rep)
	}
	record.Spans = tr.spans
	if err := record.write(o); err != nil {
		return err
	}
	for _, rep := range record.Workloads {
		if err := rep.print(stdout, o.trace); err != nil {
			return fmt.Errorf("%s: %w", rep.Workload, err)
		}
	}
	return nil
}

// report is what a run measured on one workload.
type report struct {
	Workload string `json:"workload"`
	// Seeds are the seeds of each cell's simulations.
	Seeds        []int64  `json:"seeds"`
	ConfigDigest string   `json:"config_digest"`
	Overrides    []string `json:"overrides"`
	// ResultsDigests are the first cell's, one per simulation; every
	// other cell must repeat them.
	ResultsDigests []string          `json:"results_digests"`
	SetupS         []float64         `json:"setups_s"`
	Cells          []cell            `json:"cells"`
	Correct        bool              `json:"correct"`
	Failed         int               `json:"failed"`
	Metrics        map[string]metric `json:"metrics"`
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload builds the workload's simulation setupRuns times, then
// measures cells until the run's time is spent, and in a traced run
// finishes with one profiled cell.
func runWorkload(w workload, o options, tr *tracer) (*report, error) {
	cfgs := w.cellConfigs(o.seed)
	rep := &report{Workload: w.name, Overrides: overrides(cfgs[0]), Correct: true}
	for _, cfg := range cfgs {
		rep.Seeds = append(rep.Seeds, cfg.Seed)
	}
	var err error
	if rep.ConfigDigest, err = jsonDigest(cfgs); err != nil {
		return nil, fmt.Errorf("config digest: %w", err)
	}
	root := tr.begin("workload "+w.name, 0)
	defer tr.end(root)

	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		_, setup, err := build(cfgs[i%len(cfgs)], tr, root)
		if err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, setup)
	}
	for {
		c, err := runCell(cfgs, tr, root, false)
		if err != nil {
			return nil, err
		}
		rep.add(c)
		// Stop once the next cell would end more than half a cell past
		// the budget; a traced run keeps a cell's time for its profiled
		// cell as well.
		wall := time.Duration(c.WallS * float64(time.Second))
		reserve := wall / 2
		if o.trace {
			reserve += wall
		}
		if len(rep.Cells) >= minCells && time.Since(start)+reserve >= budget {
			break
		}
	}
	if o.trace {
		c, err := runCell(cfgs, tr, root, true)
		if err != nil {
			return nil, err
		}
		rep.add(c)
	}
	rep.ResultsDigests = rep.Cells[0].Digests
	if o.trace {
		rep.Metrics = layerMetrics(rep)
	} else {
		rep.Metrics = endToEndMetrics(rep)
	}
	return rep, nil
}

// add records a cell, failing it if its output checks fail or its Results
// differ from the first cell's: every cell of a run uses the same seeds.
func (r *report) add(c cell) {
	if len(r.Cells) > 0 && !slices.Equal(c.Digests, r.Cells[0].Digests) {
		c.Problems = append(c.Problems, "results digests differ from the first cell's")
	}
	if len(c.Problems) > 0 {
		r.Correct = false
		r.Failed++
	}
	r.SetupS = append(r.SetupS, c.SetupS...)
	r.Cells = append(r.Cells, c)
}

// untraced returns fn over the run's untraced cells.
func (r *report) untraced(fn func(cell) float64) []float64 {
	var out []float64
	for _, c := range r.Cells {
		if !c.Traced {
			out = append(out, fn(c))
		}
	}
	return out
}

// endToEndMetrics are medians over the run's cells.
func endToEndMetrics(r *report) map[string]metric {
	return map[string]metric{
		"cpu_s":        {median(r.untraced(func(c cell) float64 { return c.CPUS })), "s"},
		"setup_s":      {median(r.SetupS), "s"},
		"alloc_mb":     {median(r.untraced(func(c cell) float64 { return c.AllocMB })), "MB"},
		"mallocs_k":    {median(r.untraced(func(c cell) float64 { return c.MallocsK })), "k-allocs"},
		"live_heap_mb": {median(r.untraced(func(c cell) float64 { return c.LiveHeapMB })), "MB"},
	}
}

// layerMetrics are the traced cell's per-layer CPU and allocation shares,
// the trace's size and overhead, and the exact counts every cell repeats.
func layerMetrics(r *report) map[string]metric {
	t := r.Cells[len(r.Cells)-1]
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".cpu_s"] = metric{t.layerCPU[l], "s"}
		m[l+".alloc_mb"] = metric{t.layerAlloc[l] / 1e6, "MB"}
	}
	m["trace.samples"] = metric{float64(t.samples), "count"}
	m["trace.overhead"] = metric{t.CPUS/median(r.untraced(func(c cell) float64 { return c.CPUS })) - 1, "ratio"}

	// total sums a value over the traced cell's simulations; outcomes
	// turns an outcome ratio back into a count of measured requests.
	total := func(f func(core.Results) float64) float64 {
		n := 0.0
		for _, res := range t.results {
			n += f(res)
		}
		return n
	}
	outcomes := func(ratio func(core.Results) float64) float64 {
		return total(func(r core.Results) float64 { return math.Round(ratio(r) * float64(r.Requests)) })
	}
	global := outcomes(func(r core.Results) float64 { return r.GlobalHitRatio })
	timeouts := total(func(r core.Results) float64 { return float64(r.Aux.PeerTimeouts) })
	search := 0.0
	if global+timeouts > 0 {
		search = global / (global + timeouts)
	}
	// A cell that fails an output check counts all its requests as failed.
	var requests, failures float64
	for _, c := range r.Cells {
		for _, res := range c.results {
			requests += float64(res.Requests)
			if len(c.Problems) > 0 {
				failures += float64(res.Requests)
			} else {
				failures += math.Round(res.FailureRatio * float64(res.Requests))
			}
		}
	}
	for name, v := range map[string]float64{
		"sim.events":              total(func(r core.Results) float64 { return float64(r.Events) }),
		"client.local_hits":       outcomes(func(r core.Results) float64 { return r.LocalHitRatio }),
		"client.global_hits":      global,
		"client.server_requests":  outcomes(func(r core.Results) float64 { return r.ServerRequestRatio }),
		"client.failures":         outcomes(func(r core.Results) float64 { return r.FailureRatio }),
		"client.peer_timeouts":    timeouts,
		"client.retrieve_retries": total(func(r core.Results) float64 { return float64(r.Faults.RetrieveRetries) }),
		"client.server_rescues":   total(func(r core.Results) float64 { return float64(r.Faults.ServerRescues) }),
		"client.crash_aborts":     total(func(r core.Results) float64 { return float64(r.Faults.CrashAborts) }),
		"bloom.filter_bypasses":   total(func(r core.Results) float64 { return float64(r.Aux.FilterBypasses) }),
		"bloom.sig_exchanges":     total(func(r core.Results) float64 { return float64(r.Aux.SigExchanges) }),
		"server.requests":         float64(t.serverRequests),
		"server.validations":      float64(t.serverValidations),
		"server.location_updates": float64(t.locationUpdates),
		"network.p2p_drops":       total(func(r core.Results) float64 { return float64(r.Faults.P2PDrops.Total()) }),
		"network.link_drops":      total(func(r core.Results) float64 { return float64(r.Faults.LinkDrops.Total()) }),
	} {
		m[name] = metric{v, "count"}
	}
	m["client.search_success_ratio"] = metric{search, "ratio"}
	failedFrac := 1.0 // no measured request at all fails every cell
	if requests > 0 {
		failedFrac = failures / requests
	}
	m["client.failed_frac"] = metric{failedFrac, "ratio"}
	m["bloom.sig_kb"] = metric{total(func(r core.Results) float64 { return float64(r.Aux.SigBytes) }) / 1e3, "kB"}
	m["network.downlink_util"] = metric{total(func(r core.Results) float64 { return r.DownlinkUtilization }) / float64(len(t.results)), "ratio"}
	return m
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes a readable table and then the result line.
func (r *report) print(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "workload %s: %d cells of seeds %v, results digests %v\n", r.Workload, len(r.Cells), r.Seeds, r.ResultsDigests)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	if traced {
		total, path := 0.0, 0.0
		for _, l := range layers {
			total += r.Metrics[l+".cpu_s"].Value
		}
		for _, l := range []string{layerMedium, "geo", "mobility", "bloom"} {
			path += r.Metrics[l+".cpu_s"].Value
		}
		if total > 0 {
			fmt.Fprintf(w, "  network.medium+geo+mobility+bloom: %.1f%% of traced CPU\n", 100*path/total)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, len(r.Cells), r.Failed, r.Metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// runRecord is the file a run leaves under --out.
type runRecord struct {
	Manifest  manifest  `json:"manifest"`
	Workloads []*report `json:"workloads"`
	Spans     []span    `json:"spans"`
}

func (rec runRecord) write(o options) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	if err := os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	return nil
}
