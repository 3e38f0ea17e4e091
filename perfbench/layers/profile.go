// Package layers reads a CPU profile written by runtime/pprof and
// charges each sample to a Minkowski layer (a Go package under
// internal/). It uses only the standard library: the profile is a
// gzip-compressed profile.proto message, decoded here field by field.
package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sample is one profile sample: its call stack, innermost frame first,
// and the CPU time it stands for.
type Sample struct {
	Stack []string // function names, leaf first
	CPUNs int64
}

// ParseCPU decodes a (possibly gzip-compressed) CPU profile.
func ParseCPU(data []byte) ([]Sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	var (
		strs      []string
		valueType []struct{ typ, unit int64 }
		rawSample [][]byte
		funcName  = map[uint64]int64{} // function id → string index
		locFuncs  = map[uint64][]uint64{}
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt struct{ typ, unit int64 }
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			valueType = append(valueType, vt)
			return err
		case 2: // sample; decoded once the value types are known
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: inlined frames, callee first
					return fields(lb, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds]; use the
	// nanosecond column.
	col := len(valueType) - 1
	for i, vt := range valueType {
		if str(vt.typ) == "cpu" && str(vt.unit) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile has no sample types")
	}
	out := make([]Sample, 0, len(rawSample))
	for _, rb := range rawSample {
		var locs []uint64
		var vals []int64
		err := fields(rb, func(n, wire int, v uint64, b []byte) error {
			switch n {
			case 1:
				if wire == 2 {
					return packed(b, func(x uint64) { locs = append(locs, x) })
				}
				locs = append(locs, v)
			case 2:
				if wire == 2 {
					return packed(b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if col >= len(vals) {
			return nil, fmt.Errorf("sample has %d values, want > %d", len(vals), col)
		}
		s := Sample{CPUNs: vals[col]}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.Stack = append(s.Stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks the top-level fields of one protobuf message, passing
// each field's number, wire type, and its varint value or its bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a packed repeated varint field.
func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
