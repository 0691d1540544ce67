package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// resumeBase is a sweep small enough for the race detector but with enough
// cells (2 values × 3 schemes × 2 reps = 12 replications) that a kill can
// land mid-sweep.
func resumeExperiment() Experiment {
	e, _ := Lookup("cachesize")
	e.Values = []float64{20, 30}
	return e
}

func resumeOptions(jr *checkpoint.Journal) Options {
	base := core.DefaultConfig()
	base.NumClients = 8
	base.NData = 300
	base.AccessRange = 150
	base.CacheSize = 12
	base.SigBits = 600
	return Options{
		Base:             &base,
		Seed:             11,
		WarmupRequests:   8,
		MeasuredRequests: 15,
		Replications:     2,
		Workers:          2,
		Journal:          jr,
	}
}

func renderSweep(t *testing.T, jr *checkpoint.Journal) string {
	t.Helper()
	e := resumeExperiment()
	points, err := e.Run(resumeOptions(jr))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return e.Table(points) + e.CSV(points)
}

// TestSweepResumeByteIdentical simulates a sweep killed at arbitrary
// points — the journal truncated at several record boundaries and at a
// torn mid-record offset — and checks the resumed run renders tables and
// CSV byte-identical to a never-interrupted run.
func TestSweepResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full mini-sweeps")
	}
	meta := []byte("test-sweep-v1")

	// Golden: uninterrupted, no journal.
	golden := renderSweep(t, nil)

	// Full journaled run to learn the record boundaries.
	fullDir := t.TempDir()
	jr, err := checkpoint.OpenJournal(fullDir, meta)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	if got := renderSweep(t, jr); got != golden {
		t.Fatalf("journaled run differs from plain run:\n%s\nvs\n%s", got, golden)
	}
	offsets := jr.Offsets()
	full, err := os.ReadFile(jr.Path())
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	_ = jr.Close()
	if len(offsets) < 4 {
		t.Fatalf("journal too small to test kill points: %d records", len(offsets))
	}

	// Kill points: just the meta record (nothing completed), a quarter in,
	// three quarters in, and a torn tail 5 bytes into a record.
	cuts := []int64{
		offsets[0],
		offsets[len(offsets)/4],
		offsets[3*len(offsets)/4],
		offsets[len(offsets)/2] + 5,
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.gckj"), full[:cut], 0o644); err != nil {
			t.Fatalf("write truncated journal: %v", err)
		}
		jr, err := checkpoint.OpenJournal(dir, meta)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got := renderSweep(t, jr)
		_ = jr.Close()
		if got != golden {
			t.Errorf("cut %d: resumed output differs from uninterrupted run", cut)
		}
	}
}

// TestReplicateResume: an interrupted replicated single-config run resumes
// to the identical aggregate.
func TestReplicateResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full mini-sweeps")
	}
	cfg := core.DefaultConfig()
	cfg.NumClients = 8
	cfg.NData = 300
	cfg.AccessRange = 150
	cfg.CacheSize = 12
	cfg.SigBits = 600
	cfg.WarmupRequests = 8
	cfg.MeasuredRequests = 15
	cfg.Seed = 21

	all, point, err := ReplicateJournaled(cfg, 4, 2, nil)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}

	meta := []byte("replicate-v1")
	dir := t.TempDir()
	jr, err := checkpoint.OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	if _, _, err := ReplicateJournaled(cfg, 4, 2, jr); err != nil {
		t.Fatalf("journaled replicate: %v", err)
	}
	offsets := jr.Offsets()
	full, err := os.ReadFile(jr.Path())
	if err != nil {
		t.Fatal(err)
	}
	_ = jr.Close()

	// Resume with only half the replications journaled.
	cut := offsets[len(offsets)/2]
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "journal.gckj"), full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	jr2, err := checkpoint.OpenJournal(dir2, meta)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = jr2.Close() }()
	all2, point2, err := ReplicateJournaled(cfg, 4, 2, jr2)
	if err != nil {
		t.Fatalf("resumed replicate: %v", err)
	}
	if len(all2) != len(all) {
		t.Fatalf("replication count %d, want %d", len(all2), len(all))
	}
	for i := range all {
		if all2[i].String() != all[i].String() {
			t.Errorf("replication %d differs after resume:\n%v\nvs\n%v", i, all2[i], all[i])
		}
	}
	if point2.Results.String() != point.Results.String() {
		t.Errorf("aggregate differs after resume")
	}
}

// journaledRun is a PoolJournaled result whose JSON form the replay test
// can tamper with field by field.
type journaledRun struct {
	Cell int
	Rep  int
	Note string
}

// TestPoolJournaledReplaysRecords counts run calls, which the kill-point
// tests cannot see: re-running is deterministic, so they would pass even if
// resume re-ran every cell. A second pass over a complete journal must run
// nothing. A record that decodes but does not re-encode to itself byte for
// byte must be re-run exactly once and superseded.
func TestPoolJournaledReplaysRecords(t *testing.T) {
	const cells, reps = 3, 2
	jr, err := checkpoint.OpenJournal(t.TempDir(), []byte("replay-count"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = jr.Close() }()
	keyFor := func(cell, rep int) string { return fmt.Sprintf("done/%d/%d", cell, rep) }
	pass := func() (calls int) {
		t.Helper()
		var n atomic.Int32
		run := func(cell, rep int) (journaledRun, error) {
			n.Add(1)
			return journaledRun{Cell: cell, Rep: rep, Note: fmt.Sprintf("c%dr%d", cell, rep)}, nil
		}
		onCell := func(cell int, rs []journaledRun) {
			for rep, r := range rs {
				if want := (journaledRun{Cell: cell, Rep: rep, Note: fmt.Sprintf("c%dr%d", cell, rep)}); r != want {
					t.Errorf("cell %d rep %d: got %+v, want %+v", cell, rep, r, want)
				}
			}
		}
		if err := PoolJournaled(cells, reps, 2, jr, keyFor, run, onCell); err != nil {
			t.Fatal(err)
		}
		return int(n.Load())
	}

	if got := pass(); got != cells*reps {
		t.Fatalf("first pass ran %d cells, want %d", got, cells*reps)
	}
	if got := pass(); got != 0 {
		t.Fatalf("second pass over a complete journal ran %d cells, want 0", got)
	}

	key := keyFor(1, 0)
	canonical, _ := jr.Lookup(key)
	if string(canonical) != `{"Cell":1,"Rep":0,"Note":"c1r0"}` {
		t.Fatalf("journaled record %s is not the encoding/json form", canonical)
	}
	for name, record := range map[string]string{
		"reordered fields": `{"Rep":0,"Cell":1,"Note":"c1r0"}`,
		"extra field":      `{"Cell":1,"Rep":0,"Note":"c1r0","Extra":7}`,
		"missing field":    `{"Cell":1,"Rep":0}`,
		"trailing bytes":   `{"Cell":1,"Rep":0,"Note":"c1r0"}` + "\n",
	} {
		if err := jr.Append(key, []byte(record)); err != nil {
			t.Fatal(err)
		}
		if got := pass(); got != 1 {
			t.Errorf("%s: ran %d cells, want the tampered one re-run once", name, got)
		}
		if p, _ := jr.Lookup(key); string(p) != string(canonical) {
			t.Errorf("%s: re-run did not supersede the record: %s", name, p)
		}
		if got := pass(); got != 0 {
			t.Errorf("%s: pass after the re-run ran %d cells, want 0", name, got)
		}
	}
}
