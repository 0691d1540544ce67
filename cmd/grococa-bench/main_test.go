package main

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/report"
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

// stdoutOf runs the command with args and returns what it printed and
// its error.
func stdoutOf(t *testing.T, args []string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// captureStdout runs the command with args and returns what it printed,
// failing the test if it fails.
func captureStdout(t *testing.T, args []string) string {
	t.Helper()
	out, err := stdoutOf(t, args)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunResume drives -resume end to end: a journaled run, a second run
// against the completed journal (all cells replayed from disk), and a
// meta-mismatch rejection when the flags change, -warmup 0 against the
// unset flag included.
func TestRunResume(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-exp", "skew", "-tiny", "-requests", "4", "-reps", "2", "-q", "-resume", dir}
	first := captureStdout(t, args)
	second := captureStdout(t, args)
	if first != second {
		t.Errorf("resumed output differs from original:\n%s\nvs\n%s", first, second)
	}
	for _, changed := range [][]string{{"-requests", "5"}, {"-warmup", "0"}} {
		if err := run(append(slices.Clone(args), changed...)); err == nil || !strings.Contains(err.Error(), "meta mismatch") {
			t.Errorf("%v against the same journal not refused: %v", changed, err)
		}
	}
}

// TestRunSeedZeroIsItsOwnSeed: -seed is written into the base config as
// given, so -seed 0 runs seed 0 instead of falling back to the default 1.
func TestRunSeedZeroIsItsOwnSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sweep := func(seed string) string {
		return captureStdout(t, []string{"-exp", "skew", "-tiny", "-seed", seed, "-q", "-csv"})
	}
	if sweep("0") == sweep("1") {
		t.Error("-seed 0 printed what -seed 1 prints")
	}
}

// TestRunRequestCountsAsGiven: -warmup and -requests are written into the
// base config whenever they are set, so -warmup 0 runs no warm-up, and a
// negative warm-up or a measured count below 1 is an error. Unset, they
// keep the base scenario's counts.
func TestRunRequestCountsAsGiven(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sweep := func(extra ...string) (string, error) {
		return stdoutOf(t, append([]string{"-exp", "skew", "-tiny", "-q", "-csv"}, extra...))
	}
	unset, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	if same, err := sweep("-warmup", "4", "-requests", "8"); err != nil || same != unset {
		t.Errorf("-tiny's own counts set explicitly changed the sweep (%v)", err)
	}
	if zero, err := sweep("-warmup", "0"); err != nil || zero == unset {
		t.Errorf("-warmup 0 printed the default warm-up's sweep (%v)", err)
	}
	for _, bad := range [][]string{{"-warmup", "-3"}, {"-requests", "0"}, {"-requests", "-2"}} {
		if _, err := sweep(bad...); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestRunAllCSVParses: every table -exp all -csv prints, the ablations'
// included, is CSV that the repo's own reader accepts.
func TestRunAllCSVParses(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	out := captureStdout(t, []string{"-exp", "all", "-tiny", "-q", "-csv"})
	rows, err := report.ParseCSV(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if exps := report.Experiments(rows); !slices.Contains(exps, "ablations") {
		t.Errorf("experiments %v carry no ablation rows", exps)
	}
}

// journalFrames returns the key and end offset of every frame of a
// journal image, the meta record first.
func journalFrames(image []byte) (keys []string, ends []int) {
	for off := 8; off < len(image); {
		kn := int(binary.BigEndian.Uint32(image[off:]))
		pn := int(binary.BigEndian.Uint32(image[off+4+kn:]))
		keys = append(keys, string(image[off+4:off+4+kn]))
		off += 8 + kn + pn + sha256.Size
		ends = append(ends, off)
	}
	return keys, ends
}

// TestResumeFromEveryJournalCut is the crash-resume property: a killed run
// leaves a byte prefix of the journal an uninterrupted run writes, since
// Journal.Append writes and syncs each frame whole and a SIGKILL cannot
// undo a completed write. So the journal of a full -resume run is cut at
// 0 bytes, inside and right after its 8-byte header, 3 bytes into and
// midway through its meta record, and at and 3 bytes past every record
// boundary. Resuming from each cut must print a never-journaled sweep's
// CSV and succeed, and leave exactly one record per key. Journals written
// by 1 and 2 workers are both cut; the second records cells out of order.
func TestResumeFromEveryJournalCut(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	sweep := []string{"-exp", "skew", "-tiny", "-schemes", "sc,grococa", "-warmup", "2", "-requests", "4", "-q", "-csv"}
	golden := captureStdout(t, sweep)
	for _, workers := range []string{"1", "2"} {
		args := append(slices.Clone(sweep), "-parallel", workers, "-resume")
		full := t.TempDir()
		if got := captureStdout(t, append(args, full)); got != golden {
			t.Fatalf("-parallel %s: journaled sweep differs:\n%s", workers, got)
		}
		image, err := os.ReadFile(filepath.Join(full, "journal.gckj"))
		if err != nil {
			t.Fatal(err)
		}
		keys, ends := journalFrames(image)
		if slices.Sort(keys); len(slices.Compact(slices.Clone(keys))) != len(keys) {
			t.Fatalf("-parallel %s: the uninterrupted sweep journaled a key twice: %q", workers, keys)
		}
		cuts := []int{0, 4, 8, 8 + 3, (8 + ends[0]) / 2}
		for _, end := range ends {
			cuts = append(cuts, end, end+3)
		}
		for _, cut := range cuts[:len(cuts)-1] {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.gckj")
			if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := stdoutOf(t, append(args, dir)); err != nil || got != golden {
				t.Errorf("-parallel %s: resumed from a %d-byte cut (%v):\n%s", workers, cut, err, got)
				continue
			}
			resumed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := journalFrames(resumed)
			if slices.Sort(got); !slices.Equal(got, keys) {
				t.Errorf("-parallel %s: a %d-byte cut resumed to records %q, want one per key of %q", workers, cut, got, keys)
			}
		}
	}
}
