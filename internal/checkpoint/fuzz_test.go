package checkpoint

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
)

// record is a slice element whose encoding is never empty.
type record struct {
	A int
	B string
	C []float64
}

// fuzzTargets returns fresh decode targets: synthetic shapes covering
// every kind the codec encodes, and core.Results, the type the sweep
// journal actually stores.
func fuzzTargets() []any {
	return []any{new(sample), new([]record), new(map[string]int), new(core.Results)}
}

// TestUnmarshalRejectsOversizedLength: a length prefix larger than the
// input can hold must be an error before anything is allocated for it.
// Sized from the prefix alone, either allocation exhausts memory.
func TestUnmarshalRejectsOversizedLength(t *testing.T) {
	var rs []record
	if err := Unmarshal([]byte{0x7f, 0xff, 0xff, 0xff}, &rs); err == nil {
		t.Error("2^31-1 records from 4 bytes accepted")
	}
	var m map[string]int
	if err := Unmarshal([]byte{0x10, 0x00, 0x00, 0x00}, &m); err == nil {
		t.Error("2^28 map entries from 4 bytes accepted")
	}
}

// FuzzUnmarshal decodes arbitrary bytes into every target shape. Decoding
// must never panic, and whatever decodes must re-encode canonically:
// decoding that encoding and encoding again yields the same bytes. The
// committed corpus (testdata/fuzz/FuzzUnmarshal) holds decoder
// regression inputs; the seeds below are encodings of valid values.
func FuzzUnmarshal(f *testing.F) {
	for _, v := range []any{sampleValue(), []record{{A: -1, B: "x", C: []float64{0.5}}}, core.Results{Scheme: "GroCoca"}} {
		data, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range fuzzTargets() {
			if err := Unmarshal(data, target); err != nil {
				continue
			}
			// Targets are pointers; encode what they point at.
			enc, err := Marshal(reflect.ValueOf(target).Elem().Interface())
			if err != nil {
				t.Fatalf("%T decoded but does not re-encode: %v", target, err)
			}
			again := reflect.New(reflect.TypeOf(target).Elem())
			if err := Unmarshal(enc, again.Interface()); err != nil {
				t.Fatalf("%T: canonical encoding does not decode: %v", target, err)
			}
			enc2, err := Marshal(again.Elem().Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%T: encoding is not a fixed point:\n first %x\nsecond %x", target, enc, enc2)
			}
		}
	})
}
