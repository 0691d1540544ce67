// Package checkpoint implements per-replication resume for sweeps and
// chaos campaigns: a canonical binary codec (the same value always
// produces the same bytes) and an append-only, crash-safe journal whose
// records carry the codec-encoded result of each completed replication.
//
// See DESIGN.md "Checkpoint format & compatibility" for the byte layout
// and the compatibility rules.
package checkpoint

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Marshal encodes v into the canonical binary form: fixed-width big-endian
// integers (every int/uint kind widens to 8 bytes), IEEE-754 bit patterns
// for floats, length-prefixed strings and slices, struct fields in
// declaration order, and map entries sorted by their encoded key bytes.
// The encoding carries no field names: compatibility is governed by
// FormatVersion, which must be bumped whenever a serialized type changes
// shape.
func Marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := encodeValue(&b, reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Unmarshal decodes canonical bytes produced by Marshal into v, which
// must be a non-nil pointer to a value of the identical type. Zero-length
// slices and maps decode as nil.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Ptr || rv.IsNil() {
		return fmt.Errorf("checkpoint: unmarshal target must be a non-nil pointer, got %T", v)
	}
	r := &reader{data: data}
	if err := decodeValue(r, rv.Elem()); err != nil {
		return err
	}
	if r.off != len(data) {
		return fmt.Errorf("checkpoint: %d trailing bytes after decode", len(data)-r.off)
	}
	return nil
}

func putU32(b *bytes.Buffer, v uint32) {
	b.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func putU64(b *bytes.Buffer, v uint64) {
	b.Write([]byte{
		byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v),
	})
}

func encodeValue(b *bytes.Buffer, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		putU64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		putU64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		putU64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		putU32(b, uint32(len(s)))
		b.WriteString(s)
	case reflect.Slice, reflect.Array:
		n := v.Len()
		putU32(b, uint32(n))
		if v.Type().Elem().Kind() == reflect.Uint8 {
			// Byte payloads are stored raw instead of widened to 8 bytes.
			for i := 0; i < n; i++ {
				b.WriteByte(byte(v.Index(i).Uint()))
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if err := encodeValue(b, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		type kv struct {
			enc []byte
			key reflect.Value
		}
		encoded := make([]kv, 0, len(keys))
		for _, k := range keys {
			var kb bytes.Buffer
			if err := encodeValue(&kb, k); err != nil {
				return err
			}
			encoded = append(encoded, kv{enc: kb.Bytes(), key: k})
		}
		sort.Slice(encoded, func(i, j int) bool { return bytes.Compare(encoded[i].enc, encoded[j].enc) < 0 })
		putU32(b, uint32(len(encoded)))
		for _, e := range encoded {
			b.Write(e.enc)
			if err := encodeValue(b, v.MapIndex(e.key)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue // unexported fields carry no serializable state
			}
			if err := encodeValue(b, v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Ptr:
		if v.IsNil() {
			b.WriteByte(0)
			return nil
		}
		b.WriteByte(1)
		return encodeValue(b, v.Elem())
	default:
		return fmt.Errorf("checkpoint: cannot encode kind %v", v.Kind())
	}
	return nil
}

// reader is a cursor over the encoded bytes.
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
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// length reads a u32 element count and rejects it when the bytes left
// cannot hold that many elements of at least size bytes each, so a
// corrupt count fails here instead of sizing an allocation. Elements that
// encode to no bytes (size 0) cannot be bounded this way.
func (r *reader) length(size int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if size > 0 && uint64(n) > uint64(len(r.data)-r.off)/uint64(size) {
		return 0, fmt.Errorf("checkpoint: length %d exceeds the %d bytes left at offset %d", n, len(r.data)-r.off, r.off)
	}
	return int(n), nil
}

// minEncodedSize is the fewest bytes any value of type t encodes to.
func minEncodedSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Ptr:
		return 1
	case reflect.String, reflect.Slice, reflect.Map:
		return 4
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			return 4 + t.Len()
		}
		return 4 + t.Len()*minEncodedSize(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath == "" {
				n += minEncodedSize(t.Field(i).Type)
			}
		}
		return n
	}
	return 8
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
}

func decodeValue(r *reader, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		v.SetBool(b[0] != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		v.SetInt(int64(u))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		v.SetUint(u)
	case reflect.Float32, reflect.Float64:
		u, err := r.u64()
		if err != nil {
			return err
		}
		v.SetFloat(math.Float64frombits(u))
	case reflect.String:
		n, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.take(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
	case reflect.Slice:
		raw := v.Type().Elem().Kind() == reflect.Uint8
		size := 1
		if !raw {
			size = minEncodedSize(v.Type().Elem())
		}
		n, err := r.length(size)
		if err != nil {
			return err
		}
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		if raw {
			b, err := r.take(n)
			if err != nil {
				return err
			}
			reflect.Copy(s, reflect.ValueOf(b))
			v.Set(s)
			return nil
		}
		for i := 0; i < n; i++ {
			if err := decodeValue(r, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Array:
		n, err := r.u32()
		if err != nil {
			return err
		}
		if int(n) != v.Len() {
			return fmt.Errorf("checkpoint: array length %d does not match type %v", n, v.Type())
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := r.take(v.Len())
			if err != nil {
				return err
			}
			reflect.Copy(v, reflect.ValueOf(b))
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := decodeValue(r, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		n, err := r.length(minEncodedSize(v.Type().Key()) + minEncodedSize(v.Type().Elem()))
		if err != nil {
			return err
		}
		if n == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			if err := decodeValue(r, k); err != nil {
				return err
			}
			e := reflect.New(v.Type().Elem()).Elem()
			if err := decodeValue(r, e); err != nil {
				return err
			}
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).PkgPath != "" {
				continue
			}
			if err := decodeValue(r, v.Field(i)); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Ptr:
		b, err := r.take(1)
		if err != nil {
			return err
		}
		if b[0] == 0 {
			v.Set(reflect.Zero(v.Type()))
			return nil
		}
		p := reflect.New(v.Type().Elem())
		if err := decodeValue(r, p.Elem()); err != nil {
			return err
		}
		v.Set(p)
	default:
		return fmt.Errorf("checkpoint: cannot decode kind %v", v.Kind())
	}
	return nil
}
