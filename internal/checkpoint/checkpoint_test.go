package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestJournalAppendAndReload(t *testing.T) {
	dir := t.TempDir()
	meta := []byte("tool=test seed=1")
	j, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	records := map[string][]byte{
		"done/0/0/1/0": []byte("alpha"),
		"done/0/1/1/0": []byte("beta"),
		"done/1/0/2/3": []byte("gamma"),
	}
	order := []string{"done/0/0/1/0", "done/0/1/1/0", "done/1/0/2/3"}
	for _, k := range order {
		if err := j.Append(k, records[k]); err != nil {
			t.Fatalf("append %s: %v", k, err)
		}
	}
	// Supersede one key: last record wins.
	if err := j.Append("done/0/0/1/0", []byte("alpha2")); err != nil {
		t.Fatalf("supersede: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if got := j2.Keys(); !reflect.DeepEqual(got, order) {
		t.Fatalf("keys %v, want %v", got, order)
	}
	if p, ok := j2.Lookup("done/0/0/1/0"); !ok || string(p) != "alpha2" {
		t.Fatalf("superseded key: %q %v", p, ok)
	}
	if p, ok := j2.Lookup("done/1/0/2/3"); !ok || string(p) != "gamma" {
		t.Fatalf("lookup: %q %v", p, ok)
	}
	// Appending after reload must keep working.
	if err := j2.Append("done/2/0/0/0", []byte("delta")); err != nil {
		t.Fatalf("append after reload: %v", err)
	}
}

func TestJournalMetaMismatch(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, []byte("seed=1"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	_ = j.Close()
	_, err = OpenJournal(dir, []byte("seed=2"))
	if err == nil || !strings.Contains(err.Error(), "meta mismatch") {
		t.Fatalf("want meta mismatch error, got %v", err)
	}
	// A cut inside another invocation's meta record holds no result
	// either, but it is not a prefix of the image this call would write.
	full, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	if err := os.WriteFile(j.Path(), full[:len(full)-1], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := OpenJournal(dir, []byte("seed=2")); err == nil {
		t.Fatal("a cut of another invocation's meta record accepted")
	}
}

// TestJournalTornTail simulates a writer killed at every byte of the
// journal: reload must recover exactly the records that were fully synced
// before the cut. A cut before the meta record ends is what a writer
// killed inside OpenJournal leaves, and opens as an empty journal. A bit
// flip inside a record cuts the journal the same way.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	meta := []byte("m")
	j, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	keys := []string{"k0", "k1", "k2", "k3"}
	for i, k := range keys {
		if err := j.Append(k, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	offsets := j.Offsets() // meta + 4 records
	path := j.Path()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	_ = j.Close()
	if len(offsets) != len(keys)+1 {
		t.Fatalf("offsets %v, want %d entries", offsets, len(keys)+1)
	}
	if offsets[len(offsets)-1] != int64(len(full)) {
		t.Fatalf("last offset %d, file size %d", offsets[len(offsets)-1], len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		jr, err := OpenJournal(dir, meta)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		got := jr.Keys()
		_ = jr.Close()
		n := 0 // records after the meta record that end by the cut
		for _, off := range offsets[1:] {
			if off <= int64(cut) {
				n++
			}
		}
		if want := keys[:n]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("cut at %d: recovered %v, want %v", cut, got, want)
		}
	}

	// A flipped payload bit fails that record's digest: it and every later
	// record are dropped, the ones before it stay.
	bad := append([]byte(nil), full...)
	bad[int(offsets[2])+4+len("k2")+4] ^= 0x40 // first payload byte of k2
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	jr, err := OpenJournal(dir, meta)
	if err != nil {
		t.Fatalf("corrupt: reopen: %v", err)
	}
	got := jr.Keys()
	_ = jr.Close()
	if !reflect.DeepEqual(got, keys[:2]) {
		t.Fatalf("flipped bit in k2: recovered %v, want %v", got, keys[:2])
	}
}

func TestJournalRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.gckj")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := OpenJournal(dir, []byte("m")); err == nil {
		t.Fatal("garbage journal accepted")
	}
}
