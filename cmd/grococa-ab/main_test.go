package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseRun(t *testing.T) {
	out := `workload sc-baseline: 2 cells of seeds [1], results digests [abc]
  cpu_s                                 1.5 s
{"correct":true,"attempted":2,"failed":1,"metrics":{"cpu_s":{"value":1.5,"unit":"s"},"alloc_mb":{"value":36,"unit":"MB"}}}
`
	r, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	if r.Digests != "[abc]" || r.Failed != 1 || r.Metrics["cpu_s"] != 1.5 || r.Metrics["alloc_mb"] != 36 {
		t.Errorf("parsed %+v", r)
	}
	for _, bad := range []string{"no digests here\n{}", "x, results digests [a]\nnot json"} {
		if _, err := parseRun(bad); err == nil {
			t.Errorf("parseRun(%q) accepted", bad)
		}
	}
}

func TestQuartiles(t *testing.T) {
	tests := []struct {
		in   []float64
		want quartile
	}{
		{[]float64{3}, quartile{3, 3, 3}},
		{[]float64{4, 1, 3, 2}, quartile{1.5, 2.5, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, quartile{1.5, 3, 4.5}},
	}
	for _, tt := range tests {
		if got := quartiles(tt.in); got != tt.want {
			t.Errorf("quartiles(%v) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestCompareCountsWinsByDirection(t *testing.T) {
	metrics := []metricSpec{{Name: "cpu_s", Unit: "s", Better: "lower"}, {Name: "hits", Unit: "count", Better: "higher"}}
	run := func(cpu, hits float64, digests string) runResult {
		return runResult{Digests: digests, Metrics: map[string]float64{"cpu_s": cpu, "hits": hits}}
	}
	base := []runResult{run(2.0, 10, "d"), run(2.2, 10, "d"), run(2.1, 10, "d"), run(2.3, 10, "d")}
	work := []runResult{run(1.0, 11, "d"), run(2.5, 9, "d"), run(1.1, 12, "d"), run(1.2, 10, "d")}
	rep := compare(metrics, base, work)
	if !rep.DigestsMatch || rep.Pairs != 4 {
		t.Errorf("digests_match=%v pairs=%d, want true and 4", rep.DigestsMatch, rep.Pairs)
	}
	cpu, hits := rep.Metrics["cpu_s"], rep.Metrics["hits"]
	if cpu.Wins != 3 || hits.Wins != 2 {
		t.Errorf("wins cpu=%d hits=%d, want 3 and 2", cpu.Wins, hits.Wins)
	}
	// Base cpu quartiles 2.05/2.15/2.25: IQR 0.2; work median 1.15.
	if got := cpu.GapOverBaseIQR; got < 4.99 || got > 5.01 {
		t.Errorf("gap over base IQR = %v, want 5", got)
	}
	work[2].Digests = "other"
	if compare(metrics, base, work).DigestsMatch {
		t.Error("differing digests reported as matching")
	}
}

func TestReadDecl(t *testing.T) {
	decl, err := readDecl("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Command) == 0 || decl.RunSeconds < 1 || len(decl.EndToEnd) == 0 {
		t.Errorf("declaration = %+v, want a command, run seconds and end-to-end metrics", decl)
	}
	if _, err := readDecl("main.go"); err == nil {
		t.Error("a file that is not JSON accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	for _, args := range [][]string{{}, {"-base", "HEAD", "-pairs", "0"}} {
		if err := run(args, &bytes.Buffer{}, &stderr); err == nil || !strings.Contains(err.Error(), "-base") {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
	}
}
