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

// layers are the per-layer buckets of the traced run: the simulator's
// own modules, plus gc for samples with no repro/internal frame on the
// stack (background marking, sweeping, the Go scheduler).
var layers = []string{
	"sim", "phys", "mac", "ctrl", "power", "aodv", "energy", "traffic",
	"mobility", "stats", "geom", "packet", "node", "scenario", "runner", "gc",
}

const internalPrefix = "repro/internal/"

// profile is the part of a pprof profile.proto that layer attribution
// needs: each sample's stack as function names, innermost first, and its
// CPU time.
type profile struct {
	stacks [][]string
	cpuNS  []int64
	// samples is the total sample count; pprof merges samples with equal
	// stacks, so it exceeds len(stacks).
	samples int64
}

// layerOf charges a stack to the innermost repro/internal frame whose
// package is a layer. Runtime and standard-library frames above it
// (mallocgc, map access, sorting) count as the calling layer's work, and
// internal packages that are not layers (obs, trace) count as their
// caller's.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, l := range layers[:len(layers)-1] {
			if pkg == l {
				return l
			}
		}
	}
	return "gc"
}

// layerCPU sums CPU nanoseconds per layer.
func (p *profile) layerCPU() map[string]int64 {
	ns := make(map[string]int64, len(layers))
	for i, st := range p.stacks {
		ns[layerOf(st)] += p.cpuNS[i]
	}
	return ns
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. It reads the sample types, samples, locations with their
// (inline-expanded) lines, functions and the string table, and ignores
// every other field.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		types   [][2]uint64             // (type, unit) string indices
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = v
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendRepeated(s.locs, v, b)
				case 2:
					s.vals, err = appendRepeated(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds) columns.
	nsCol, countCol := -1, -1
	for i, t := range types {
		switch u, _ := str(t[1]); u {
		case "nanoseconds":
			nsCol = i
		case "count":
			countCol = i
		}
	}
	if nsCol < 0 || countCol < 0 {
		return nil, errors.New("profile: not a CPU profile (no count and nanoseconds columns)")
	}
	p := &profile{}
	for _, s := range samples {
		if max(nsCol, countCol) >= len(s.vals) {
			return nil, errors.New("profile: sample lacks a value column")
		}
		var stack []string
		for _, loc := range s.locs {
			fns, ok := locFns[loc]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location %d", loc)
			}
			for _, fn := range fns {
				name, err := str(fnName[fn])
				if err != nil {
					return nil, err
				}
				stack = append(stack, name)
			}
		}
		p.stacks = append(p.stacks, stack)
		p.cpuNS = append(p.cpuNS, int64(s.vals[nsCol]))
		p.samples += int64(s.vals[countCol])
	}
	return p, nil
}

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; the profile format uses none that
// attribution needs.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("profile: truncated fixed field")
			}
			msg = msg[w:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendRepeated appends one element of a repeated varint field, which
// arrives either unpacked (a varint) or packed (length-delimited bytes).
func appendRepeated(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}
