package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuBuckets are the shares the traced run reports, by the package of a
// sample's leaf frame. Runtime leaves split into allocation+GC and
// scheduling by what the stack is doing; every other package lands in
// "other".
var cpuBuckets = []string{
	"peer", "operators", "stream", "xmltree", "p2pml", "algebra", "monoid",
	"wire", "transport", "dht", "kadop", "simnet", "soap", "alerters",
	"driver", "runtime_gc", "runtime_sched", "runtime_other", "other",
}

// gcFrames and schedFrames mark a runtime-leaf sample as memory
// management or scheduling when any of them is on its stack.
var (
	gcFrames = []string{
		"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.GC", "runtime.newobject",
		"runtime.makeslice", "runtime.growslice", "runtime.gcStart", "runtime.markroot",
	}
	schedFrames = []string{
		"runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
		"runtime.sysmon", "runtime.futex", "runtime.goexit0", "runtime.newproc",
	}
)

// cpuShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time, and the share of each leaf
// function behind the catch-all buckets ("runtime_other", "other").
func cpuShares(gz []byte) (shares, leaves map[string]float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, nil, err
	}
	shares = make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	leaves = make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		frames := p.frames(s.locs)
		if len(frames) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		b := bucketOf(frames)
		shares[b] += v
		if b == "other" || b == "runtime_other" {
			leaves[frames[0]] += v
		}
		total += v
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
		for fn := range leaves {
			leaves[fn] /= total
		}
	}
	return shares, leaves, nil
}

// bucketOf classifies a stack (leaf first) by its leaf frame's package.
func bucketOf(frames []string) string {
	pkg := packageOf(frames[0])
	switch {
	case pkg == "main":
		return "driver"
	case strings.HasPrefix(pkg, "p2pm/internal/"):
		name := strings.TrimPrefix(pkg, "p2pm/internal/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "runtime/internal/") || !strings.Contains(frames[0], "."):
		// Runtime assembly symbols (aeshashbody, memeqbody, …) carry no
		// package.
		for _, f := range frames {
			for _, g := range gcFrames {
				if f == g {
					return "runtime_gc"
				}
			}
		}
		for _, f := range frames {
			for _, g := range schedFrames {
				if f == g {
					return "runtime_sched"
				}
			}
		}
		return "runtime_other"
	}
	return "other"
}

// packageOf returns the import path of a function symbol such as
// "p2pm/internal/peer.(*System).Step"; a symbol without a package
// comes back whole.
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof profile the shares need.
type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, leaf first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// frames resolves a sample's location ids to function names, leaf
// first (inlined frames included).
func (p *profile) frames(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		if wire != 2 {
			return nil
		}
		switch num {
		case profSampleField:
			var s profSample
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, data)
				case 2:
					for _, u := range appendUints(nil, wire, v, data) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, wire int, v uint64, data []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return eachField(data, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case profFunctionField:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(num int, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case profStringField:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated uint64 field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

var errTruncated = errors.New("perfbench: truncated profile")

// eachField walks the fields of one protobuf message: varints arrive
// in v, length-delimited fields in data. Fixed-width fields are
// skipped.
func eachField(b []byte, f func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errTruncated
		}
		if err := f(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
