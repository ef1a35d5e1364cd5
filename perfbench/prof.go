package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profPackages are the packages the sampled attribution of Serve reports.
var profPackages = []string{"sched", "hdd", "blockdev", "netstore", "gf", "cluster", "fleet"}

// serve runs f as a child span labelled for the CPU profile, so samples
// taken inside it can be told apart from the rest of the run.
func (t *tracer) serve(name string, f func()) {
	if t == nil {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) {
		t.record(name, false, f)
	})
}

// profile is the sampled package attribution of the labelled spans: each
// sample goes to the deepnote/internal package nearest the leaf of its
// stack, so runtime work (allocation, locks) lands on the package that
// asked for it.
type profile struct {
	samples int64
	byPkg   map[string]int64
}

func (p profile) frac(pkg string) float64 {
	if p.samples == 0 {
		return 0
	}
	return float64(p.byPkg[pkg]) / float64(p.samples)
}

// attribute decodes a gzipped pprof CPU profile and buckets the samples
// that carry the span label.
func attribute(gz []byte) (profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		count  int64
		labels [][2]int64
	}
	var (
		strs    []string
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → name string index
	)
	err = pbFields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s sample
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					if first {
						if vals := pbAppendUints(nil, v, b); len(vals) > 0 {
							s.count = int64(vals[0])
							first = false
						}
					}
				case 3:
					var key, str int64
					if err := pbFields(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return profile{}, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := profile{byPkg: map[string]int64{}}
	for _, s := range samples {
		labelled := false
		for _, l := range s.labels {
			if str(l[0]) == "span" && strings.HasSuffix(str(l[1]), ".serve") {
				labelled = true
			}
		}
		if !labelled {
			continue
		}
		p.samples += s.count
		p.byPkg[leafPackage(s.locs, locFns, fnName, str)] += s.count
	}
	return p, nil
}

// leafPackage names the deepnote/internal package nearest the stack leaf.
func leafPackage(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]int64, str func(int64) string) string {
	const prefix = "deepnote/internal/"
	for _, loc := range locs {
		for _, fn := range locFns[loc] {
			name := str(fnName[fn])
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			pkg := name[len(prefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	return "other"
}

var errProto = errors.New("malformed protobuf")

// pbFields walks one protobuf message, calling f with each field number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, f func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errProto
			}
			b = b[n:]
			if err := f(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := f(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendUints appends a repeated varint field given either unpacked
// (v) or packed (b).
func pbAppendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
