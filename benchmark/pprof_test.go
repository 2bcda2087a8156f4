package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the part of the pprof profile format (profile.proto) that
// per-layer attribution needs: each sample's call stack as function names,
// innermost first, and its last value (CPU nanoseconds in a CPU profile).
// The standard library writes this format but ships no reader outside the
// go tool.

type profSample struct {
	stack []string // function names, innermost frame first, inlines expanded
	value int64
}

// protoField is one field of a protobuf message: a varint (wire type 0) in
// num, or a length-delimited payload (wire type 2) in data.
type protoField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

var errProto = errors.New("malformed profile")

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

func protoFields(b []byte, visit func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		f := protoField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, rest, err = uvarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = uvarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errProto
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := visit(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// repeatedUvarint appends a repeated integer field, packed or not.
func repeatedUvarint(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed profile as runtime/pprof writes it.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string-table index
		strs     []string
	)
	err = protoFields(raw, func(f protoField) error {
		switch f.tag {
		case 2: // Sample
			var s rawSample
			err := protoFields(f.data, func(g protoField) (err error) {
				switch g.tag {
				case 1:
					s.locs, err = repeatedUvarint(s.locs, g)
				case 2:
					s.vals, err = repeatedUvarint(s.vals, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(f.data, func(g protoField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // Line
					return protoFields(g.data, func(l protoField) error {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := protoFields(f.data, func(g protoField) error {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// layers are the packages host time is attributed to, in report order.
var layers = []string{
	"sim", "wire", "det", "bitset", "fbl", "recovery", "coord", "optimistic",
	"output", "traffic", "storage", "workload", "cluster", "explore",
}

const (
	layerGC    = "runtime.gc"
	layerOther = "runtime.other"
	internal   = "rollrec/internal/"
)

var isLayer = func() map[string]bool {
	m := map[string]bool{}
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf charges one sample to the innermost frame that belongs to a layer,
// so map, memmove and allocation work lands on the layer that asked for it.
// Frames of helper packages that are not layers (ids, metrics, vclock, node,
// netmodel, ...) are looked through, which charges them to their caller. A
// stack with no layer frame is the collector's background work if it passes
// through a runtime.gc*/bg* function, and otherwise everything else: the
// scheduler, idle spinning, and this benchmark's own code.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internal) {
			continue
		}
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if isLayer[pkg] {
			return pkg
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bg") {
			return layerGC
		}
	}
	return layerOther
}

// cpuShares folds samples into each layer's share of the profiled CPU time.
func cpuShares(samples []profSample) map[string]float64 {
	by := map[string]float64{}
	var total float64
	for _, s := range samples {
		by[layerOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range by {
		by[k] /= total
	}
	return by
}
