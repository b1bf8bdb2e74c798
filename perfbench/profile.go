package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// selfLayers are the modules whose flat CPU time the traced run reports
// as <layer>.self_s. go.runtime takes the Go runtime and the standard
// library's internal packages, go.stdlib the rest of the standard
// library (encoding/json, compress/flate, crypto/sha256, os, ...), and
// other every remaining package (the simulator's smaller modules and
// this benchmark).
var selfLayers = []string{
	"system", "ftl", "sim", "cpu", "cachesim", "osched", "core", "writelog",
	"flash", "cxl", "dram", "trace", "workloads", "runner", "store",
	"experiments", "go.runtime", "go.stdlib", "other",
}

// layerOf maps a function name as the profile records it (for example
// "skybyte/internal/cachesim.(*Cache).Fill") to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold paths
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "skybyte/internal/"):
		mod := strings.TrimPrefix(pkg, "skybyte/internal/")
		for _, l := range selfLayers {
			if l == mod {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "go.runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "skybyte"):
		return "other"
	}
	return "go.stdlib"
}

// cpuProfile is the part of a runtime/pprof CPU profile the benchmark
// reads: each sample's stack (leaf first, inlined frames expanded) and
// its CPU nanoseconds.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack []string
	ns    int64
}

// selfSeconds buckets flat CPU time (the leaf frame of every sample) by
// layer.
func (p *cpuProfile) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		if len(s.stack) > 0 {
			out[layerOf(s.stack[0])] += float64(s.ns) / 1e9
		}
	}
	return out
}

// cumSeconds is the CPU time of samples with fn anywhere on the stack.
func (p *cpuProfile) cumSeconds(fn string) float64 {
	var ns int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if f == fn {
				ns += s.ns
				break
			}
		}
	}
	return float64(ns) / 1e9
}

// totalSeconds is the CPU time of every sample.
func (p *cpuProfile) totalSeconds() float64 {
	var ns int64
	for _, s := range p.samples {
		ns += s.ns
	}
	return float64(ns) / 1e9
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof.StartCPUProfile writes. It reads only the fields it
// needs: samples, locations, functions and the string table.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = appendRepeated(s.locs, v, b)
				case 2:
					s.values, err = appendRepeated(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcNames[fid]; ok && i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				cs.stack = append(cs.stack, name(fid))
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// walk calls fn for every field of one protobuf message: v carries a
// varint value, b a length-delimited payload.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends a repeated varint field, which the encoder
// writes either one value per field (b nil) or packed (b set).
func appendRepeated(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
