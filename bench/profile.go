package main

// CPU-profile folding: the traced run records a runtime/pprof CPU
// profile and this file attributes every sample's CPU time to the
// simulator layer of its leaf frame's package, and to the benchmark
// stage (pprof label "stage") that was running. The profile format is
// gzip-compressed protobuf (github.com/google/pprof's profile.proto);
// only the handful of fields needed here are decoded, with the standard
// library alone.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerOf maps a Go package path to the layer its self CPU time is
// charged to. Packages not listed fold into "other".
var layerOf = map[string]string{
	"repro/internal/trace":       "trace",
	"repro/internal/replay":      "replay",
	"repro/internal/cache":       "cache",
	"repro/internal/replacement": "cache",
	"repro/internal/prefetch":    "cache",
	"repro/internal/partition":   "cache",
	"repro/internal/cpu":         "cpu",
	"repro/internal/branch":      "cpu",
	"repro/internal/core":        "core",
	"repro/internal/dram":        "dram",
	"repro/internal/sim":         "sim",
	"repro/internal/phase":       "phase",
	"repro/internal/runner":      "runner",
	"repro/internal/store":       "store",
	"repro/internal/server":      "server",
	"runtime":                    "runtime",
}

// layers lists every layer the fold reports, "other" last.
var layers = []string{"trace", "replay", "cache", "cpu", "core", "dram", "sim",
	"phase", "runner", "store", "server", "runtime", "other"}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/cache.(*Cache).Access" or "runtime.mallocgc". Type
// arguments of a generic instantiation, which may name other packages,
// are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerFor is the layer a leaf function's CPU time belongs to.
func layerFor(fn string) string {
	if l, ok := layerOf[packageOf(fn)]; ok {
		return l
	}
	return "other"
}

// fold is a CPU profile's time per layer and per stage label, in
// seconds.
type fold struct {
	Layers map[string]float64 `json:"layers"`
	Stages map[string]float64 `json:"stages"`
	Total  float64            `json:"total"`
}

// foldProfile decodes a CPU profile and folds its samples.
func foldProfile(gz []byte) (fold, error) {
	out := fold{Layers: make(map[string]float64), Stages: make(map[string]float64)}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return out, err
	}
	vi := -1 // CPU profiles carry [samples/count, cpu/nanoseconds]
	for i, typ := range p.sampleTypes {
		if p.str(typ) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return out, fmt.Errorf("profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		leaf := "?"
		if len(s.locs) > 0 {
			if lines := p.locLines[s.locs[0]]; len(lines) > 0 {
				leaf = p.str(p.funcName[lines[0]])
			}
		}
		out.Layers[layerFor(leaf)] += sec
		stage := "unlabelled"
		for _, l := range s.labels {
			if p.str(l[0]) == "stage" {
				stage = p.str(l[1])
			}
		}
		out.Stages[stage] += sec
		out.Total += sec
	}
	return out, nil
}

// profile holds the decoded subset of a profile.proto message.
type profile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []sample
	locLines    map[uint64][]uint64 // location id → function ids, innermost first
	funcName    map[uint64]int64    // function id → string index of its name
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
	labels [][2]int64 // (key, str) string indices
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("profile: malformed protobuf")

// pbField is one decoded protobuf field: its number, wire type, and the
// varint value or the length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	top, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locLines: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	for _, f := range top {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			vt, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, g := range vt {
				if g.num == 1 {
					typ = int64(g.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample: location_id=1, value=2, label=3
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = varints(g, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = varints(g, vals); err != nil {
						return nil, err
					}
				case 3:
					lf, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					var l [2]int64
					for _, h := range lf {
						if h.num == 1 || h.num == 2 {
							l[h.num-1] = int64(h.v)
						}
					}
					s.labels = append(s.labels, l)
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					lf, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range lf {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locLines[id] = fns
		case 5: // function: id=1, name=2
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
	}
	return p, nil
}
