package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// tinyArgs shrink the run so command tests finish in milliseconds.
var tinyArgs = []string{
	"-clients", "8", "-ndata", "400", "-accessrange", "80",
	"-cachesize", "15", "-warmup", "5", "-requests", "10",
}

// runOutput runs the command with args and returns what it printed.
func runOutput(t *testing.T, args []string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = oldStdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	if err := run([]string{"-scheme", "bogus"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunRejectsUnknownDelivery(t *testing.T) {
	if err := run([]string{"-delivery", "bogus"}); err == nil {
		t.Error("unknown delivery model accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if err := run([]string{"-clients", "0"}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunEachScheme(t *testing.T) {
	for _, scheme := range []string{"sc", "coca", "grococa"} {
		args := append([]string{"-scheme", scheme, "-v"}, tinyArgs...)
		if err := run(args); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

func TestRunEachDelivery(t *testing.T) {
	for _, d := range []string{"pull", "push", "hybrid"} {
		args := append([]string{"-scheme", "sc", "-delivery", d}, tinyArgs...)
		if err := run(args); err != nil {
			t.Errorf("delivery %s: %v", d, err)
		}
	}
}

func TestRunReplicated(t *testing.T) {
	out := runOutput(t, append([]string{"-scheme", "grococa", "-reps", "3", "-parallel", "4"}, tinyArgs...))
	for _, want := range []string{"rep 0:", "rep 2:", "mean:", "sd:", "(n=3 reps)"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicated output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadReps(t *testing.T) {
	if err := run(append([]string{"-reps", "0"}, tinyArgs...)); err == nil {
		t.Error("-reps 0 accepted")
	}
}

func TestRunRejectsTraceWithReps(t *testing.T) {
	args := append([]string{"-reps", "2", "-tracefile", filepath.Join(t.TempDir(), "t.csv")}, tinyArgs...)
	if err := run(args); err == nil {
		t.Error("-tracefile with -reps > 1 accepted")
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	args := append([]string{"-scheme", "coca", "-tracefile", path}, tinyArgs...)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want header + rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "sim_time_s,host,outcome,latency_ms") {
		t.Errorf("trace header = %q", lines[0])
	}
	if !strings.Contains(string(data), "local-hit") && !strings.Contains(string(data), "server-request") {
		t.Error("trace rows missing outcomes")
	}
}

func TestRunRejectsUnwritableTrace(t *testing.T) {
	args := append([]string{"-tracefile", "/nonexistent-dir/trace.csv"}, tinyArgs...)
	if err := run(args); err == nil {
		t.Error("unwritable trace path accepted")
	}
}

// TestRunWithFrozenClock pins the injectable wall clock and checks the
// wall-time figure in the summary is computed from it (0s when frozen) —
// the seam the wallclock lint allowlist depends on.
func TestRunWithFrozenClock(t *testing.T) {
	old := wallClock
	wallClock = clock.Fixed{T: time.Unix(1700000000, 0)}
	defer func() { wallClock = old }()

	out := runOutput(t, append([]string{"-scheme", "sc"}, tinyArgs...))
	if !strings.Contains(out, "wall=0s") {
		t.Errorf("frozen clock did not zero the wall-time figure:\n%s", out)
	}
}

// aux reads one counter of the -v aux line.
func aux(t *testing.T, out, name string) int {
	t.Helper()
	m := regexp.MustCompile(`\b` + name + `:(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output has no %s counter:\n%s", name, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunCapFlagsWinOverPreset: -resilience swaps in a whole policy, but
// a -retrieveretry or -serverretry cap set on the command line still
// holds, as it does over the default preset. With no rescue allowed, every
// lost MSS exchange fails at its first rescue timeout.
func TestRunCapFlagsWinOverPreset(t *testing.T) {
	lossy := []string{
		"-clients", "10", "-warmup", "5", "-requests", "30", "-ndata", "500",
		"-accessrange", "100", "-cachesize", "20",
		"-uplinkloss", "0.3", "-downlinkloss", "0.2", "-v",
		"-serverretry", "0", "-retrieveretry", "0",
	}
	for _, preset := range []string{"", "-resilience"} {
		args := lossy
		if preset != "" {
			args = append([]string{preset}, lossy...)
		}
		out := runOutput(t, args)
		if got := aux(t, out, "ServerRescues"); got != 0 {
			t.Errorf("%q: ServerRescues = %d under -serverretry 0, want 0", preset, got)
		}
		if got := aux(t, out, "RescueFailures"); got == 0 {
			t.Errorf("%q: RescueFailures = 0, want lost exchanges failed", preset)
		}
	}
}

// TestRunPolicyFlagsApplyOnEitherPreset: every policy flag set on the
// command line applies on top of the preset the run uses, the default one
// included. A zero retry budget leaves lossy P2P with no retrieve retry, a
// breaker opens under outages, and a combination Policy.Validate refuses
// is an error.
func TestRunPolicyFlagsApplyOnEitherPreset(t *testing.T) {
	small := []string{"-clients", "20", "-warmup", "20", "-requests", "60", "-v"}
	lossy := append([]string{"-retrybudget", "0", "-p2ploss", "0.3"}, small...)
	outages := append([]string{"-outageperiod", "12s", "-outageduration", "4s", "-breakerfailures", "3", "-breakeropen", "8s"}, small...)
	for _, preset := range [][]string{nil, {"-resilience"}} {
		if got := aux(t, runOutput(t, append(preset, lossy...)), "RetrieveRetries"); got != 0 {
			t.Errorf("%q: RetrieveRetries = %d under -retrybudget 0, want 0", preset, got)
		}
		if got := aux(t, runOutput(t, append(preset, outages...)), "BreakerOpens"); got == 0 {
			t.Errorf("%q: BreakerOpens = 0 with -breakerfailures 3 under outages", preset)
		}
		for _, bad := range [][]string{
			{"-breakerfailures", "3", "-breakeropen", "0s"},
			{"-servestale", "-breakerfailures", "0"},
			{"-retryjitter", "1.5"},
		} {
			if err := run(append(append(preset, bad...), tinyArgs...)); err == nil {
				t.Errorf("%q %q: invalid policy accepted", preset, bad)
			}
		}
	}
}

// TestRunProfilesLeaveOutputUnchanged runs one simulation with and without
// -cpuprofile and -memprofile: stdout must not change, and each profile
// must be a non-empty gzip stream, the form pprof writes. A profile path
// that cannot be created is an error.
func TestRunProfilesLeaveOutputUnchanged(t *testing.T) {
	old := wallClock
	wallClock = clock.Fixed{T: time.Unix(1700000000, 0)}
	defer func() { wallClock = old }()
	plain := runOutput(t, tinyArgs)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	profiled := runOutput(t, append([]string{"-cpuprofile", cpu, "-memprofile", mem}, tinyArgs...))
	if profiled != plain {
		t.Errorf("profiling changed the output:\n%s\nwithout profiles:\n%s", profiled, plain)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil || len(body) == 0 {
			t.Errorf("%s: %d bytes after gunzip (%v), want a profile", filepath.Base(path), len(body), err)
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		args := append([]string{flag, filepath.Join(dir, "missing", "p.pprof")}, tinyArgs...)
		if err := run(args); err == nil {
			t.Errorf("%s into a missing directory succeeded", flag)
		}
	}
}
