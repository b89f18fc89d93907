package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileCPU runs f under the Go CPU profiler and returns the profile.
func profileCPU(f func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}

// setCPU reports the share of a profile's samples per module.
func setCPU(r *result, prof []byte) error {
	shares, n, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		r.set("cpu."+m+"_pct", shares[m]*100)
	}
	r.details["cpu"] = map[string]any{"samples": n}
	return nil
}

const internalPrefix = "opalperf/internal/"

// cpuShares attributes every sample of a CPU profile to the module of its
// innermost opalperf/internal frame, so runtime frames are charged to the
// module that called them.  Samples in the benchmark's own code, and
// those with no such frame, go to "other" unless they are the runtime's
// background collector ("gc").
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, 0, err
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := classify(p, s.locs)
		if !known[mod] {
			mod = "other"
		}
		counts[mod] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	if total == 0 {
		return shares, 0, nil
	}
	for m, c := range counts {
		shares[m] = float64(c) / float64(total)
	}
	return shares, total, nil
}

func classify(p *profile, locs []uint64) string {
	gc := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.funcNames[fn]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				return moduleOf(rest)
			}
			if strings.HasPrefix(name, "main.") {
				return "other" // the benchmark's own code, such as the counting wrapper
			}
			if strings.HasPrefix(name, "runtime.gcBgMarkWorker") || strings.HasPrefix(name, "runtime.bgsweep") ||
				strings.HasPrefix(name, "runtime.bgscavenge") || strings.HasPrefix(name, "runtime.gcMarkDone") {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// moduleOf maps "md/opalrpc.(*X).Y" or "pvm.(*simTask).Send" to its
// top-level package under internal/.
func moduleOf(rest string) string {
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return rest
	}
	return rest[:end]
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes a gzipped profile.proto (the fields are numbered
// as in github.com/google/pprof/proto/profile.proto).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcName := map[uint64]int64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcName {
		if si >= 0 && si < int64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes (b == nil
// for varints).
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (b != nil) or not.
func varints(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}
