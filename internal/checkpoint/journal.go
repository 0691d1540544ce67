// Package checkpoint implements per-replication resume for sweeps and
// chaos campaigns: an append-only, crash-safe journal whose records carry
// the result of each completed replication. The journal frames opaque
// payloads; experiments.PoolJournaled, which writes and replays every
// record, stores each result as encoding/json.
//
// See DESIGN.md "Checkpoint format & compatibility" for the byte layout
// and the compatibility rules.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FormatVersion is the current journal format version. It must be bumped
// whenever the framing or the shape of any journaled type changes;
// OpenJournal rejects journals from other versions instead of guessing.
const FormatVersion uint32 = 2

// journalMagic identifies a journal file; the u32 after it is the format
// version (FormatVersion).
var journalMagic = []byte("GCKJ")

// MetaKey is the reserved key of the journal's first record, which binds
// the journal to the invocation that created it (tool, flags, seed). The
// NUL prefix keeps it out of every caller keyspace.
const MetaKey = "\x00meta"

// maxJournalKey bounds record keys, as a sanity check against reading a
// garbage length out of a corrupted file.
const maxJournalKey = 1 << 16

// Journal is an append-only, crash-safe completion log. Every record is
// individually framed and digested:
//
//	keyLen u32 | key | payloadLen u32 | payload | sha256(frame)
//
// so a process killed mid-append leaves a torn tail that loading detects
// and truncates — every record before the tear stays trusted. Records
// with the same key supersede each other (last one wins). Appends are
// safe from multiple goroutines; the sweep worker pool appends from every
// worker.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	records map[string][]byte
	keys    []string // first-seen order
	offsets []int64  // file offset after each good record (incl. meta)
}

// OpenJournal opens (or creates) the journal inside dir, binding it to
// meta. A fresh journal records meta as its first entry; an existing one
// must carry byte-identical meta, otherwise the caller is resuming with
// different parameters and the error says so. A torn tail from a crashed
// writer is truncated away before appending resumes.
func OpenJournal(dir string, meta []byte) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(dir, "journal.gckj")

	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		j := &Journal{path: path, f: f, records: make(map[string][]byte)}
		header := binary.BigEndian.AppendUint32(append([]byte(nil), journalMagic...), FormatVersion)
		if _, err := f.Write(header); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		if err := j.Append(MetaKey, meta); err != nil {
			_ = f.Close()
			return nil, err
		}
		return j, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	j, good, err := loadJournal(path, data)
	if err != nil {
		return nil, err
	}
	got, ok := j.records[MetaKey]
	if !ok {
		return nil, fmt.Errorf("checkpoint: %s carries no meta record", path)
	}
	if !bytes.Equal(got, meta) {
		return nil, fmt.Errorf("checkpoint: %s was created by a different invocation (meta mismatch); resume with the original flags or use a fresh directory", path)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	// Truncate a torn tail so new appends start at a record boundary.
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j.f = f
	return j, nil
}

// loadJournal parses the journal image read from path in memory,
// returning its records (with no file attached) and the offset of the last
// intact record. Anything unparsable past that point — a torn tail from a
// killed writer, or trailing corruption — is ignored.
func loadJournal(path string, data []byte) (*Journal, int64, error) {
	header := len(journalMagic) + 4
	if len(data) < header || !bytes.Equal(data[:len(journalMagic)], journalMagic) {
		return nil, 0, fmt.Errorf("checkpoint: %s is not a journal", path)
	}
	if version := binary.BigEndian.Uint32(data[len(journalMagic):]); version != FormatVersion {
		return nil, 0, fmt.Errorf("checkpoint: %s: journal format version %d, want %d", path, version, FormatVersion)
	}
	j := &Journal{path: path, records: make(map[string][]byte)}
	r := &reader{data: data, off: header}
	good := int64(header)
	for r.off < len(data) {
		key, payload, ok := readRecord(r)
		if !ok {
			break // torn or corrupt tail; everything before it is trusted
		}
		j.put(key, payload)
		good = int64(r.off)
		j.offsets = append(j.offsets, good)
	}
	return j, good, nil
}

// readRecord parses one framed record; ok is false on a torn or corrupt
// frame.
func readRecord(r *reader) (key string, payload []byte, ok bool) {
	frameStart := r.off
	kn, err := r.u32()
	if err != nil || kn > maxJournalKey {
		return "", nil, false
	}
	kb, err := r.take(int(kn))
	if err != nil {
		return "", nil, false
	}
	pn, err := r.u32()
	if err != nil {
		return "", nil, false
	}
	pb, err := r.take(int(pn))
	if err != nil {
		return "", nil, false
	}
	want, err := r.take(sha256.Size)
	if err != nil {
		return "", nil, false
	}
	sum := sha256.Sum256(r.data[frameStart : r.off-sha256.Size])
	if !bytes.Equal(sum[:], want) {
		return "", nil, false
	}
	return string(kb), pb, true
}

// reader is a cursor over a journal image.
type reader struct {
	data []byte
	off  int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, fmt.Errorf("checkpoint: truncated input (need %d bytes at offset %d of %d)", n, r.off, len(r.data))
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (j *Journal) put(key string, payload []byte) {
	if _, seen := j.records[key]; !seen {
		j.keys = append(j.keys, key)
	}
	j.records[key] = payload
}

// appendFrame appends the framed record of one key/payload pair to b.
func appendFrame(b []byte, key string, payload []byte) []byte {
	start := len(b)
	b = binary.BigEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	sum := sha256.Sum256(b[start:])
	return append(b, sum[:]...)
}

// Append durably records one key/payload pair: the framed record is
// written and fsynced before Append returns, so a completion the caller
// observed survives any later crash.
func (j *Journal) Append(key string, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	frame := appendFrame(nil, key, payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("checkpoint: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: journal sync: %w", err)
	}
	j.put(key, payload)
	off := int64(len(journalMagic) + 4)
	if len(j.offsets) > 0 {
		off = j.offsets[len(j.offsets)-1]
	}
	j.offsets = append(j.offsets, off+int64(len(frame)))
	return nil
}

// Lookup returns the payload of the latest record with this key.
func (j *Journal) Lookup(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.records[key]
	return p, ok
}

// Keys returns every recorded key in first-seen order (meta excluded).
func (j *Journal) Keys() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]string, 0, len(j.keys))
	for _, k := range j.keys {
		if k != MetaKey {
			out = append(out, k)
		}
	}
	return out
}

// Offsets returns the file offset after each intact record, meta
// included — the record boundaries, used by crash-injection tests to cut
// a journal at an arbitrary kill point.
func (j *Journal) Offsets() []int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]int64, len(j.offsets))
	copy(out, j.offsets)
	return out
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// InspectJournal reads a journal without opening it for appends,
// returning its keys in first-seen order (meta excluded). Harness-kill
// orchestration polls this to decide when a child has made enough
// progress to be worth killing.
func InspectJournal(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	j, _, err := loadJournal(path, data)
	if err != nil {
		return nil, err
	}
	return j.Keys(), nil
}
