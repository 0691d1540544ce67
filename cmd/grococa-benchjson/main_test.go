package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/sim
cpu: Intel(R) Xeon(R) Processor
BenchmarkKernelScheduleRun-8   	 5000000	       250.0 ns/op	      48 B/op	       2 allocs/op
BenchmarkRNGExp-8              	20000000	        60.5 ns/op
PASS
ok  	repro/internal/sim	2.5s
pkg: repro/internal/bloom
BenchmarkFilterAdd-8           	10000000	       100.0 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/bloom	1.1s
`

func TestRunParsesAndSorts(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(out.Bytes(), &base); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if base.Format != 1 || len(base.Benchmarks) != 3 {
		t.Fatalf("format %d, %d benchmarks, want 1, 3", base.Format, len(base.Benchmarks))
	}
	// Sorted by qualified name: bloom before sim.
	first := base.Benchmarks[0]
	if first.Name != "repro/internal/bloom.BenchmarkFilterAdd" {
		t.Errorf("first benchmark %q, want the bloom one", first.Name)
	}
	kernel := base.Benchmarks[1]
	if kernel.Name != "repro/internal/sim.BenchmarkKernelScheduleRun" ||
		kernel.Procs != 8 || kernel.Iterations != 5000000 ||
		kernel.NsPerOp != 250.0 || kernel.OpsPerSec != 4000000 ||
		kernel.BytesPerOp != 48 || kernel.AllocsPerOp != 2 {
		t.Errorf("kernel entry mismatch: %+v", kernel)
	}
	// A line without -benchmem columns keeps zero B/op.
	rng := base.Benchmarks[2]
	if rng.Name != "repro/internal/sim.BenchmarkRNGExp" || rng.BytesPerOp != 0 || rng.NsPerOp != 60.5 {
		t.Errorf("rng entry mismatch: %+v", rng)
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(strings.NewReader(sampleBench), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleBench), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("output differs across identical inputs")
	}
}

// writeBase writes raw bench output to a base file on disk.
func writeBase(t *testing.T, raw string) string {
	t.Helper()
	path := t.TempDir() + "/base.txt"
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareWithinToleranceOK(t *testing.T) {
	path := writeBase(t, sampleBench)
	// 20% slower kernel dispatch: inside the 30% gate.
	fresh := strings.ReplaceAll(sampleBench, "250.0 ns/op", "312.5 ns/op")
	var out bytes.Buffer
	if err := runCompare(strings.NewReader(fresh), &out, path, 0.30); err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bench-compare ok: 3 benchmark(s)") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	path := writeBase(t, sampleBench)
	// Kernel dispatch 2x slower: 50% ops/sec drop, beyond the 30% gate.
	fresh := strings.ReplaceAll(sampleBench, "250.0 ns/op", "500.0 ns/op")
	var out bytes.Buffer
	err := runCompare(strings.NewReader(fresh), &out, path, 0.30)
	if err == nil {
		t.Fatalf("50%% regression passed the 30%% gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkKernelScheduleRun") {
		t.Errorf("failure does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("per-benchmark FAIL line missing:\n%s", out.String())
	}
}

func TestCompareNewAndGoneAreInformational(t *testing.T) {
	path := writeBase(t, sampleBench)
	// Fresh output drops the bloom benchmark and adds a new one.
	fresh := strings.ReplaceAll(sampleBench,
		"BenchmarkFilterAdd-8           	10000000	       100.0 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkFilterNew-8           	10000000	       100.0 ns/op	       0 B/op	       0 allocs/op")
	var out bytes.Buffer
	if err := runCompare(strings.NewReader(fresh), &out, path, 0.30); err != nil {
		t.Fatalf("new/gone benchmarks failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new") || !strings.Contains(out.String(), "gone") {
		t.Errorf("new/gone lines missing:\n%s", out.String())
	}
}

func TestCompareRejectsDisjointAndBadInputs(t *testing.T) {
	path := writeBase(t, sampleBench)
	if err := runCompare(strings.NewReader(sampleBench), &bytes.Buffer{}, path, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
	if err := runCompare(strings.NewReader(sampleBench), &bytes.Buffer{}, t.TempDir()+"/missing.txt", 0.3); err == nil {
		t.Error("missing base accepted")
	}
	// No overlap at all: the gate must refuse rather than vacuously pass.
	other := "pkg: repro/other\nBenchmarkElsewhere-8 1000 10.0 ns/op\n"
	if err := runCompare(strings.NewReader(other), &bytes.Buffer{}, path, 0.3); err == nil {
		t.Error("disjoint benchmark sets passed the gate")
	}
}

// TestCompareGatesMedians gates multi-run output on both sides by per-row
// medians: one slow outlier run on either side moves nothing.
func TestCompareGatesMedians(t *testing.T) {
	runs := func(nsPerOp ...string) string {
		out := "pkg: repro/internal/sim\n"
		for _, ns := range nsPerOp {
			out += "BenchmarkKernelScheduleRun-2 1000 " + ns + " ns/op 0 B/op 0 allocs/op\n"
		}
		return out
	}
	path := writeBase(t, runs("250", "900", "250", "260", "240"))
	var out bytes.Buffer
	if err := runCompare(strings.NewReader(runs("300", "310", "1000", "290", "300")), &out, path, 0.30); err != nil {
		t.Fatalf("medians 250 -> 300 ns/op failed the 30%% gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "4000000 ->      3333333 ops/sec") {
		t.Errorf("compared rates are not the per-side medians:\n%s", out.String())
	}
	if err := runCompare(strings.NewReader(runs("400", "400", "100", "400", "400")), &bytes.Buffer{}, path, 0.30); err == nil {
		t.Error("medians 250 -> 400 ns/op (-37.5% ops/sec) passed the 30% gate")
	}
}

// TestComparePrintsBaseSpread pins the base side's spread printed next to
// a compared row: its slowest and fastest run relative to its median.
func TestComparePrintsBaseSpread(t *testing.T) {
	runs := func(nsPerOp ...string) string {
		out := "pkg: repro/internal/network\n"
		for _, ns := range nsPerOp {
			out += "BenchmarkMediumTransmit-2 1000 " + ns + " ns/op 0 B/op 0 allocs/op\n"
		}
		return out
	}
	// 4.0M, 5.0M, 4.0M, 3.2M and 4.0M ops/sec: median 4.0M.
	path := writeBase(t, runs("250", "200", "250", "312.5", "250"))
	var out bytes.Buffer
	if err := runCompare(strings.NewReader(runs("250", "250", "250")), &out, path, 0.30); err != nil {
		t.Fatalf("unchanged row failed the gate: %v\n%s", err, out.String())
	}
	if want := "4000000 ->      4000000 ops/sec (+0.0%; base spread -20.0% to +25.0%)"; !strings.Contains(out.String(), want) {
		t.Errorf("compared row lacks %q:\n%s", want, out.String())
	}
}

func TestRunRejectsEmptyAndGarbageValues(t *testing.T) {
	if err := run(strings.NewReader("PASS\nok x 1s\n"), &bytes.Buffer{}); err == nil {
		t.Error("empty input accepted")
	}
	if err := run(strings.NewReader("BenchmarkX-8 notanumber 1 ns/op\n"), &bytes.Buffer{}); err == nil {
		t.Error("garbage iteration count accepted")
	}
}
