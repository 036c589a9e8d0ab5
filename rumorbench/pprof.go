package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles net/http/pprof
// serves, just enough to attribute sampled CPU time to the repo's layers.
// Only the fields the attribution needs are decoded: samples (location IDs
// and values), locations (their line → function IDs), functions (name
// string index) and the string table.

type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location ID → function IDs, innermost first
	functions map[uint64]int64    // function ID → name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds (the last sample value)
}

// funcNames returns the stack of a sample as function names, leaf first,
// with inlined frames expanded.
func (p *profile) funcNames(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			if idx, ok := p.functions[fid]; ok && idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			var values []int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					ids, err := varints(w, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vs, err := varints(w, v, b)
					for _, x := range vs {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = values[len(values)-1]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks one protobuf message, handing varint fields as v and
// length-delimited fields as b.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("pprof: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: bad length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("pprof: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value
// (wire type 0) or a packed run (wire type 2).
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// cpuLayers are the buckets of the CPU layer-share table, in report order.
var cpuLayers = []string{"sim", "dynamic", "engine", "runner", "stats", "store", "service", "cluster", "obs", "http", "runtime"}

// repoLayer maps a package of the repo to its layer; packages that only
// serve another layer (random numbers, the event queue) return "" so the
// sample is charged to their caller.
var repoLayer = map[string]string{
	"sim": "sim", "dynamic": "dynamic", "graph": "dynamic", "gen": "dynamic",
	"engine": "engine", "runner": "runner", "stats": "stats", "store": "store",
	"service": "service", "cluster": "cluster", "retry": "cluster", "faults": "cluster",
	"obs": "obs", "buildinfo": "service", "main": "service",
}

// layerOf attributes one stack (leaf first) to a layer: the innermost frame
// that belongs to a repo layer wins, so library code (encoding/json, os,
// syscalls) is charged to the layer that called it. A stack whose only repo
// frame is the HTTP access-log middleware is HTTP serving, not
// observability; a stack with no repo frame is HTTP if net/http is on it and
// Go runtime (GC, scheduler) otherwise.
func layerOf(stack []string) string {
	http := false
	for i, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") {
			http = true
		}
		pkg, ok := repoPackage(fn)
		if !ok {
			continue
		}
		layer := repoLayer[pkg]
		if layer == "" {
			continue
		}
		if layer == "obs" && i > 0 && strings.Contains(fn, "AccessLog") {
			return "http"
		}
		return layer
	}
	if http {
		return "http"
	}
	return "runtime"
}

// repoPackage extracts the internal package (or "main" for a command) from
// a fully qualified function name of this module.
func repoPackage(fn string) (string, bool) {
	const internal = "dynamicrumor/internal/"
	if strings.HasPrefix(fn, internal) {
		rest := fn[len(internal):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i], true
		}
		return rest, true
	}
	if strings.HasPrefix(fn, "main.") {
		return "main", true
	}
	return "", false
}

// cpuByLayer sums a profile's CPU nanoseconds per layer.
func cpuByLayer(p *profile) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.samples {
		out[layerOf(p.funcNames(s))] += s.value
	}
	return out
}
