package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"
)

// frame is one intact record of a journal image, as the fuzz oracle reads
// it.
type frame struct {
	key     string
	payload []byte
	end     int64 // offset just past the frame
}

// intactFrames is the oracle, written apart from the journal's reader: the
// frames that follow a journal header, up to the first one that is torn
// or fails its digest.
func intactFrames(image []byte) []frame {
	var out []frame
	for off := len(journalMagic) + 4; ; {
		rest := image[off:]
		if len(rest) < 4 {
			return out
		}
		kn := uint64(binary.BigEndian.Uint32(rest))
		if kn > maxJournalKey || uint64(len(rest)) < 8+kn {
			return out
		}
		pn := uint64(binary.BigEndian.Uint32(rest[4+kn:]))
		size := 8 + kn + pn + sha256.Size
		if uint64(len(rest)) < size {
			return out
		}
		body := rest[:size-sha256.Size]
		if sum := sha256.Sum256(body); !bytes.Equal(sum[:], rest[len(body):size]) {
			return out
		}
		off += int(size)
		out = append(out, frame{key: string(rest[4 : 4+kn]), payload: rest[8+kn : len(body)], end: int64(off)})
	}
}

// checkRecords asserts that j holds exactly the records of frames: one
// offset per frame, keys in first-seen order without the meta key, and the
// last payload of every key.
func checkRecords(t *testing.T, j *Journal, good int64, frames []frame) {
	t.Helper()
	end := int64(len(journalMagic) + 4)
	if len(frames) > 0 {
		end = frames[len(frames)-1].end
	}
	if good != end {
		t.Fatalf("load kept %d bytes, want the %d before the first torn or bad-digest frame", good, end)
	}
	offsets := j.Offsets()
	if len(offsets) != len(frames) {
		t.Fatalf("load kept %d records, want %d", len(offsets), len(frames))
	}
	var keys []string
	last := map[string][]byte{}
	for i, fr := range frames {
		if offsets[i] != fr.end {
			t.Fatalf("record %d ends at %d, want %d", i, offsets[i], fr.end)
		}
		if _, seen := last[fr.key]; !seen && fr.key != MetaKey {
			keys = append(keys, fr.key)
		}
		last[fr.key] = fr.payload
	}
	if got := j.Keys(); !slices.Equal(got, keys) {
		t.Fatalf("keys %q, want %q", got, keys)
	}
	for key, payload := range last {
		if p, ok := j.Lookup(key); !ok || !bytes.Equal(p, payload) {
			t.Fatalf("key %q holds %q, want %q", key, p, payload)
		}
	}
}

// FuzzOpenJournal feeds arbitrary journal images to loadJournal, the
// in-memory parse behind OpenJournal, so execs stay cheap. No image may panic. An accepted image keeps exactly the
// records before its first torn or bad-digest frame. An Append where
// OpenJournal resumes — the frame written at the last intact offset —
// keeps those records plus the new one. The committed corpus
// (testdata/fuzz/FuzzOpenJournal) holds a valid journal, a torn tail, a
// flipped digest byte, a wrong version, wrong magic and an oversized key
// length.
func FuzzOpenJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, image []byte) {
		j, good, err := loadJournal("fuzz", image)
		if err != nil {
			return
		}
		frames := intactFrames(image)
		checkRecords(t, j, good, frames)

		grown := appendFrame(image[:good:good], "done/appended", []byte(`{"Rep":1}`))
		j, good, err = loadJournal("fuzz", grown)
		if err != nil {
			t.Fatalf("journal no longer loads after an append: %v", err)
		}
		checkRecords(t, j, good, append(frames, frame{key: "done/appended", payload: []byte(`{"Rep":1}`), end: int64(len(grown))}))
	})
}
