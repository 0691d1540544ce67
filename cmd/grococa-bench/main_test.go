package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "bogus"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-nonsense"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunSingleExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	// The smallest figure sweep at a drastically reduced request count;
	// still covers the full table-rendering path.
	if err := run([]string{"-exp", "skew", "-warmup", "3", "-requests", "5", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadReps(t *testing.T) {
	if err := run([]string{"-reps", "0"}); err == nil {
		t.Error("-reps 0 accepted")
	}
}

// TestRunReplicatedParallelTiny drives the parallel replicated engine end
// to end through the command: a tiny sweep with -reps/-parallel must
// succeed and (byte-determinism is pinned in internal/experiments) render
// the mean±sd table path.
func TestRunReplicatedParallelTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := run([]string{"-exp", "skew", "-tiny", "-warmup", "2", "-requests", "4", "-reps", "2", "-parallel", "4", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTinyAblationsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := run([]string{"-exp", "ablations", "-tiny", "-warmup", "2", "-requests", "4", "-reps", "2", "-parallel", "4", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExtensionExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	if err := run([]string{"-exp", "hopdist", "-warmup", "3", "-requests", "5", "-q", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithFrozenClock pins the injectable wall clock and checks the
// total-wall-time line is computed from it (0s when frozen).
func TestRunWithFrozenClock(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	old := wallClock
	wallClock = clock.Fixed{T: time.Unix(1700000000, 0)}
	defer func() { wallClock = old }()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStderr := os.Stderr
	os.Stderr = w
	runErr := run([]string{"-exp", "skew", "-warmup", "2", "-requests", "3", "-q"})
	os.Stderr = oldStderr
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
	if !strings.Contains(string(out), "total wall time: 0s") {
		t.Errorf("frozen clock did not zero the wall-time line:\n%s", out)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
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

// TestRunResume drives -resume end to end: a journaled run, a second run
// against the completed journal (all cells replayed from disk), and a
// meta-mismatch rejection when the flags change.
func TestRunResume(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-exp", "skew", "-tiny", "-warmup", "2", "-requests", "4", "-reps", "2", "-q", "-resume", dir}
	first := captureStdout(t, func() error { return run(args) })
	second := captureStdout(t, func() error { return run(args) })
	if first != second {
		t.Errorf("resumed output differs from original:\n%s\nvs\n%s", first, second)
	}
	bad := []string{"-exp", "skew", "-tiny", "-warmup", "2", "-requests", "5", "-reps", "2", "-q", "-resume", dir}
	if err := run(bad); err == nil || !strings.Contains(err.Error(), "meta mismatch") {
		t.Errorf("changed flags against the same journal not refused: %v", err)
	}
}

// TestRunSeedZeroIsItsOwnSeed: -seed is written into the base config as
// given, so -seed 0 runs seed 0 instead of falling back to the default 1.
func TestRunSeedZeroIsItsOwnSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sweep := func(seed string) string {
		return captureStdout(t, func() error {
			return run([]string{"-exp", "skew", "-tiny", "-seed", seed, "-q", "-csv"})
		})
	}
	if sweep("0") == sweep("1") {
		t.Error("-seed 0 printed what -seed 1 prints")
	}
}
