package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, keeping per sample only
// what the phase shares need: its weight, its pprof labels and its leaf
// call chain.

type profSample struct {
	weight int64             // CPU nanoseconds
	labels map[string]string // pprof.Do labels
	frames []string          // function names, leaf first, inlined frames expanded
}

// protobuf wire reader.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("profile: varint overflow")
	return 0
}

// field returns the next field number, wire type, and for varints the
// value or for length-delimited fields the payload.
func (p *pbuf) field() (num int, typ int, v uint64, data []byte) {
	key := p.varint()
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v = p.varint()
	case 1:
		if len(p.b) < 8 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[8:]
	case 2:
		n := p.varint()
		if uint64(len(p.b)) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[4:]
	default:
		p.err = fmt.Errorf("profile: wire type %d", typ)
	}
	return
}

// uints appends a repeated integer field that may be packed or not.
func uints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := &pbuf{b: data}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseCPUProfile decodes a gzipped CPU profile into samples.
func parseCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, vals   []uint64
		keys, strIdx []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
	)
	p := &pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, data := p.field()
		if p.err != nil {
			break
		}
		switch num {
		case 2: // Sample
			var s rawSample
			q := &pbuf{b: data}
			for len(q.b) > 0 && q.err == nil {
				n, t, v, d := q.field()
				switch n {
				case 1:
					s.locs, err = uints(s.locs, t, v, d)
				case 2:
					s.vals, err = uints(s.vals, t, v, d)
				case 3: // Label{key, str}
					l := &pbuf{b: d}
					var key, str uint64
					for len(l.b) > 0 && l.err == nil {
						ln, _, lv, _ := l.field()
						switch ln {
						case 1:
							key = lv
						case 2:
							str = lv
						}
					}
					s.keys, s.strIdx = append(s.keys, key), append(s.strIdx, str)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location{id, line: Line{function_id}}
			q := &pbuf{b: data}
			var id uint64
			var fns []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, d := q.field()
				switch n {
				case 1:
					id = v
				case 4:
					l := &pbuf{b: d}
					for len(l.b) > 0 && l.err == nil {
						ln, _, lv, _ := l.field()
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function{id, name}
			q := &pbuf{b: data}
			var id, name uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	if p.err != nil {
		return nil, fmt.Errorf("profile: %w", p.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{labels: map[string]string{}}
		if len(s.vals) > 1 {
			ps.weight = int64(s.vals[1])
		}
		for i := range s.keys {
			ps.labels[str(s.keys[i])] = str(s.strIdx[i])
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				ps.frames = append(ps.frames, str(funcs[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// corePhase buckets a tagged-engine sample by its leaf function into the
// engine's phases: deliver/match, fire, tag operations, emit and memory.
// Runtime leaves (allocation, GC, map and slice growth) are their own
// bucket; engine code outside the named phases (the cycle loop, sampling,
// harness and check) is "other".
func corePhase(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	f := frames[0]
	switch {
	case strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "gcWriteBarrier") || strings.HasPrefix(f, "aeshash"):
		return "runtime"
	case strings.HasPrefix(f, "repro/internal/mem."), strings.HasSuffix(f, ".memLatency"),
		strings.HasPrefix(f, "repro/internal/cache."):
		return "mem"
	case strings.HasPrefix(f, "repro/internal/core."):
		name := f[strings.LastIndex(f, ".")+1:]
		recv := f[len("repro/internal/core."):]
		switch {
		case strings.HasPrefix(name, "deliver"), name == "consumeOne", name == "hashTag",
			strings.HasPrefix(recv, "(*waitStore)"):
			return "deliver"
		case strings.HasPrefix(name, "fire"), name == "grantAllocate":
			return "fire"
		case strings.HasPrefix(name, "emit"), name == "evSeq":
			return "emit"
		case name == "popTag", name == "freeTag", name == "allocRoot", name == "avail",
			name == "noteAlloc", name == "pendingIndex", strings.HasPrefix(name, "kb"),
			strings.HasPrefix(name, "wake"), strings.HasPrefix(recv, "(*tagMap)"):
			return "tagops"
		}
	case strings.HasPrefix(f, "repro/internal/dfg."):
		return "fire"
	case strings.HasPrefix(f, "repro/internal/cq."):
		return "emit"
	}
	return "other"
}

// isMapAccess reports whether a sample's leaf is Go map work: the runtime
// frames at the top of the stack include a map operation or hashing.
func isMapAccess(frames []string) bool {
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			return false
		}
		if strings.HasPrefix(f, "runtime.map") || strings.HasPrefix(f, "internal/runtime/maps.") ||
			strings.Contains(f, "hash") {
			return true
		}
	}
	return false
}

// phaseShares returns, for samples labelled with the given system, the
// share of CPU time in each phase, and the total weight seen.
func phaseShares(samples []profSample, system string, bucket func([]string) string) (map[string]float64, int64) {
	shares := map[string]float64{}
	var total int64
	for _, s := range samples {
		if s.labels["system"] != system {
			continue
		}
		shares[bucket(s.frames)] += float64(s.weight)
		total += s.weight
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= float64(total)
		}
	}
	return shares, total
}
