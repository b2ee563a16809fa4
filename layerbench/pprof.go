package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads a runtime/pprof CPU profile (gzipped profile.proto)
// with the standard library alone and buckets its samples into layers
// through the package table in layers.txt.

// profile holds each sample's stack (leaf first, inlined frames
// expanded innermost first) and its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

// wire is a protobuf field reader over one message's bytes.
type wire struct {
	b   []byte
	err error
}

func (w *wire) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(w.b) == 0 {
			w.err = io.ErrUnexpectedEOF
			return 0
		}
		c := w.b[0]
		w.b = w.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	w.err = fmt.Errorf("pprof: varint overflow")
	return 0
}

// next returns the next field's number, wire type, varint value (types
// 0, 1 and 5) or payload (type 2). ok is false at the end or on error.
func (w *wire) next() (field int, typ int, val uint64, payload []byte, ok bool) {
	if len(w.b) == 0 || w.err != nil {
		return 0, 0, 0, nil, false
	}
	key := w.varint()
	field, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		val = w.varint()
	case 1, 5:
		n := 8
		if typ == 5 {
			n = 4
		}
		if len(w.b) < n {
			w.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		w.b = w.b[n:]
	case 2:
		n := w.varint()
		if w.err != nil || uint64(len(w.b)) < n {
			w.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		payload, w.b = w.b[:n], w.b[n:]
	default:
		w.err = fmt.Errorf("pprof: unsupported wire type %d", typ)
		return 0, 0, 0, nil, false
	}
	return field, typ, val, payload, w.err == nil
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, typ int, val uint64, payload []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, val), nil
	}
	p := wire{b: payload}
	for len(p.b) > 0 {
		dst = append(dst, p.varint())
		if p.err != nil {
			return nil, p.err
		}
	}
	return dst, nil
}

// parseProfile decodes the Profile message fields the layer table needs:
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(bufio.NewReader(zr))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	w := wire{b: raw}
	for {
		field, _, _, payload, ok := w.next()
		if !ok {
			break
		}
		switch field {
		case 2:
			var s sample
			var vals []uint64
			m := wire{b: payload}
			for {
				f, t, v, p, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, err = repeated(s.locs, t, v, p)
				case 2:
					vals, err = repeated(vals, t, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			m := wire{b: payload}
			for {
				f, _, v, p, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := wire{b: p}
					for {
						lf, _, lv, _, ok := line.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			m := wire{b: payload}
			for {
				f, _, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			if m.err != nil {
				return nil, m.err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(payload))
		}
	}
	if w.err != nil {
		return nil, w.err
	}
	prof := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		prof.stacks = append(prof.stacks, stack)
		prof.counts = append(prof.counts, s.count)
	}
	return prof, nil
}

// layerRule maps a function-name prefix to a layer. Rules match in three
// tiers: "stack" rules anywhere on the stack (GC work is GC whoever
// triggered it), then "frame" rules on the innermost matching frame,
// then "fallback" rules for stacks with no frame-rule match (runtime
// work no repository code asked for, such as the idle scheduler).
type layerRule struct {
	tier, prefix, layer string
}

// layers lists the table's layers in report order; "unmapped" is not one.
var layers = []string{"msgplane", "engine", "link", "accounting", "facility", "sched", "gc", "other"}

func parseLayerTable(src string) ([]layerRule, error) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	var rules []layerRule
	for i, line := range strings.Split(src, "\n") {
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 || (f[0] != "stack" && f[0] != "frame" && f[0] != "fallback") || !known[f[2]] {
			return nil, fmt.Errorf("layers.txt:%d: want \"stack|frame|fallback <prefix> <layer>\" with a known layer, got %q", i+1, line)
		}
		rules = append(rules, layerRule{f[0], f[1], f[2]})
	}
	return rules, nil
}

// longest returns the layer of the longest tier rule prefixing fn.
func longest(rules []layerRule, tier, fn string) (string, bool) {
	best, n := "", -1
	for _, r := range rules {
		if r.tier == tier && len(r.prefix) > n && strings.HasPrefix(fn, r.prefix) {
			best, n = r.layer, len(r.prefix)
		}
	}
	return best, n >= 0
}

// classify returns a stack's layer, or "" when no rule matches.
func classify(rules []layerRule, stack []string) string {
	for _, r := range rules {
		if r.tier != "stack" {
			continue
		}
		for _, fn := range stack {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	for _, tier := range []string{"frame", "fallback"} {
		for _, fn := range stack {
			if l, ok := longest(rules, tier, fn); ok {
				return l
			}
		}
	}
	return ""
}

// funcPackage returns the import path of a profile function name.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerShares buckets samples into layers. shares holds each layer's
// fraction of all samples; unmapped counts samples per leaf package no
// rule matched.
func layerShares(p *profile, rules []layerRule) (shares map[string]float64, unmapped map[string]int64, total int64) {
	byLayer := map[string]int64{}
	unmapped = map[string]int64{}
	for i, stack := range p.stacks {
		n := p.counts[i]
		total += n
		if l := classify(rules, stack); l != "" {
			byLayer[l] += n
			continue
		}
		leaf := "(no frames)"
		if len(stack) > 0 {
			leaf = funcPackage(stack[0])
		}
		unmapped[leaf] += n
	}
	shares = map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return shares, unmapped, total
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
