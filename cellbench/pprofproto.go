package main

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// profile is the part of a profile.proto message that stack attribution
// needs (github.com/google/pprof/proto/profile.proto).
type profile struct {
	samples []protoSample
	// locations maps a location id to the function ids of its lines,
	// innermost inlined function first.
	locations map[uint64][]uint64
	// functions maps a function id to its name.
	functions map[uint64]string
}

// protoSample is one sample: location ids, leaf first, and its values.
type protoSample struct {
	locations []uint64
	values    []int64
}

// Field numbers of profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// decodeProfile decodes an uncompressed profile.proto message.
func decodeProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcNames := map[uint64]uint64{}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == profSample && wire == wireBytes:
			var s protoSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return appendUints(&s.locations, wire, v, b)
				case sampleValue:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == profLocation && wire == wireBytes:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == locationID && wire == wireVarint:
					id = v
				case num == locationLine && wire == wireBytes:
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == lineFunction && wire == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case num == profFunction && wire == wireBytes:
			var id, name uint64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == functionID && wire == wireVarint:
					id = v
				case num == functionName && wire == wireVarint:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == profStringTable && wire == wireBytes:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNames {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.functions[id] = strs[idx]
	}
	for _, s := range p.samples {
		for _, loc := range s.locations {
			if _, ok := p.locations[loc]; !ok {
				return nil, fmt.Errorf("sample names unknown location %d", loc)
			}
		}
	}
	return p, nil
}

// Protobuf wire types; profile.proto uses only these two.
const (
	wireVarint = 0
	wireBytes  = 2
)

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint's value and b a length-delimited field's bytes.
func eachField(data []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case wireBytes:
			size, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < size {
				return errTruncated
			}
			b, data = data[n:n+int(size)], data[n+int(size):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, which the encoder writes
// either packed (length-delimited) or as one varint per element.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	switch wire {
	case wireVarint:
		*dst = append(*dst, v)
	case wireBytes:
		for len(b) > 0 {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			*dst = append(*dst, x)
			b = b[n:]
		}
	}
	return nil
}
