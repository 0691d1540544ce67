package bloom

import "testing"

// FuzzDecodeVLFL feeds arbitrary bytes, signature sizes up to 4096 bits,
// hash counts and run bounds R (valid and not) to DecodeVLFL, which reads
// signatures received from peers. It must never panic, and a filter it
// accepts must re-encode to a stream that decodes to an Equal filter, with
// VLFLBits equal to the encoder's bit count.
func FuzzDecodeVLFL(f *testing.F) {
	sparse, err := NewFilter(1000, 2)
	if err != nil {
		f.Fatal(err)
	}
	for e := uint64(0); e < 20; e++ {
		sparse.Add(e)
	}
	enc, _, err := EncodeVLFL(sparse, 63)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, uint16(1000), uint8(2), 63)
	f.Add(enc[:len(enc)/2], uint16(1000), uint8(2), 63)
	f.Add([]byte{0xff, 0xff}, uint16(97), uint8(1), 7)
	f.Add([]byte{}, uint16(1), uint8(1), 1)
	f.Add([]byte{0x12, 0x34}, uint16(64), uint8(2), 6)
	f.Fuzz(func(t *testing.T, data []byte, mRaw uint16, k uint8, r int) {
		m := int(mRaw)%4096 + 1
		got, err := DecodeVLFL(data, m, int(k), r)
		if err != nil {
			return
		}
		enc, nbits, err := EncodeVLFL(got, r)
		if err != nil {
			t.Fatalf("re-encoding a decoded filter with R=%d: %v", r, err)
		}
		again, err := DecodeVLFL(enc, m, int(k), r)
		if err != nil {
			t.Fatalf("decoding a re-encoded filter (m=%d R=%d): %v", m, r, err)
		}
		if !again.Equal(got) {
			t.Fatalf("m=%d R=%d: re-encoded filter decodes differently", m, r)
		}
		if bits, err := VLFLBits(got, r); err != nil || bits != nbits {
			t.Fatalf("m=%d R=%d: VLFLBits %d (%v), EncodeVLFL %d bits", m, r, bits, err, nbits)
		}
	})
}
