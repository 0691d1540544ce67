package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-nonsense"},
		{"-seeds", "0"},
		{"-campaign", "bogus"},
		{"-scheme", "bogus"},
	}
	for _, args := range cases {
		if _, err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("list: code %d, err %v", code, err)
	}
	for _, name := range []string{"loss-ramp", "burst-storm", "outage-storm", "churn-wave", "blackout", "combined"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("catalog misses %s:\n%s", name, out.String())
		}
	}
}

// TestRunSingleCellClean drives the full path — campaign, auditor, table —
// for one cell and checks the clean exit code.
func TestRunSingleCellClean(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	var out bytes.Buffer
	code, err := run([]string{"-campaign", "outage-storm", "-scheme", "grococa", "-seeds", "1", "-v"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean cell exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 runs, 1 clean, 0 violations") {
		t.Errorf("summary line missing:\n%s", out.String())
	}
}

// TestRunByteIdenticalAcrossParallel pins the acceptance requirement at
// the command level: identical stdout for -parallel 1 and 4.
func TestRunByteIdenticalAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	outputs := make([]string, 0, 2)
	for _, p := range []string{"1", "4"} {
		var out bytes.Buffer
		code, err := run([]string{"-campaign", "churn-wave", "-seeds", "2", "-parallel", p, "-v"}, &out)
		if err != nil || code != 0 {
			t.Fatalf("-parallel %s: code %d, err %v", p, code, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("output differs across -parallel:\n--- 1 ---\n%s--- 4 ---\n%s", outputs[0], outputs[1])
	}
}

// TestRunResume checks the journaled path end to end: a matrix run twice
// against the same journal directory prints byte-identical reports (the
// second run replays entirely from the journal), and a resume with
// different flags is refused via the meta record.
func TestRunResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	dir := t.TempDir()
	args := []string{"-campaign", "churn-wave", "-scheme", "sc", "-seeds", "2", "-resume", dir}
	outputs := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		code, err := run(args, &out)
		if err != nil || code != 0 {
			t.Fatalf("run %d: code %d, err %v", i, code, err)
		}
		outputs = append(outputs, out.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("journaled rerun differs:\n--- first ---\n%s--- second ---\n%s", outputs[0], outputs[1])
	}
	if _, err := run([]string{"-campaign", "churn-wave", "-scheme", "sc", "-seeds", "3", "-resume", dir}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "meta mismatch") {
		t.Errorf("resume with changed flags accepted: %v", err)
	}
}

// TestRunSelfTestFails proves the detection chain through the command: the
// seeded TTL-corruption bug must produce a nonzero exit and violations
// whose repro line carries -selftest.
func TestRunSelfTestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	var out bytes.Buffer
	code, err := run([]string{"-selftest", "-campaign", "loss-ramp", "-scheme", "coca", "-seeds", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Fatalf("self-test exited clean — the auditor is blind:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "repro: go run ./cmd/grococa-chaos") ||
		!strings.Contains(out.String(), "-selftest") {
		t.Errorf("violations miss the repro command:\n%s", out.String())
	}
}

// TestRunSeedZeroIsItsOwnSeed: -seed is the matrix's base seed as given,
// so -seed 0 runs seed 0 instead of falling back to the default 1.
func TestRunSeedZeroIsItsOwnSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	matrix := func(seed string) string {
		var out bytes.Buffer
		if _, err := run([]string{"-campaign", "loss-ramp", "-scheme", "sc", "-seeds", "1", "-seed", seed, "-v"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if zero := matrix("0"); zero == matrix("1") {
		t.Errorf("-seed 0 printed what -seed 1 prints:\n%s", zero)
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
// boundary. Resuming from each cut must print a never-journaled run's
// report with its exit code, and leave exactly one record per key. The
// matrices are an outage storm and a breaker flap, whose journal two
// workers write out of order.
func TestResumeFromEveryJournalCut(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation in -short mode")
	}
	for _, matrix := range [][]string{
		{"-campaign", "outage-storm", "-scheme", "sc", "-seeds", "2", "-parallel", "1"},
		{"-campaign", "breaker-flap", "-scheme", "sc", "-seeds", "3", "-parallel", "2"},
	} {
		resume := func(dir string) (string, int) {
			var out bytes.Buffer
			code, err := run(append(slices.Clone(matrix), "-resume", dir), &out)
			if err != nil {
				return out.String() + err.Error(), 1
			}
			return out.String(), code
		}
		golden, goldenCode := resume("") // an empty -resume journals nothing
		full := t.TempDir()
		if got, code := resume(full); got != golden || code != goldenCode {
			t.Fatalf("%v: journaled run differs (exit %d vs %d):\n%s", matrix, code, goldenCode, got)
		}
		image, err := os.ReadFile(filepath.Join(full, "journal.gckj"))
		if err != nil {
			t.Fatal(err)
		}
		keys, ends := journalFrames(image)
		if slices.Sort(keys); len(slices.Compact(slices.Clone(keys))) != len(keys) {
			t.Fatalf("%v: the uninterrupted run journaled a key twice: %q", matrix, keys)
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
			if got, code := resume(dir); got != golden || code != goldenCode {
				t.Errorf("%v: resumed from a %d-byte cut (exit %d, want %d):\n%s", matrix, cut, code, goldenCode, got)
				continue
			}
			resumed, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := journalFrames(resumed)
			if slices.Sort(got); !slices.Equal(got, keys) {
				t.Errorf("%v: a %d-byte cut resumed to records %q, want one per key of %q", matrix, cut, got, keys)
			}
		}
	}
}
