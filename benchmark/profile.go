package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the gzip-compressed protobuf a CPU profile is
// written in (github.com/google/pprof/proto/profile.proto), reading
// only what attribution needs: each sample's count and its stack as
// function names, leaf first. It exists so that the benchmark needs
// neither a module dependency nor a `go tool pprof` child process.

// stackSample is one profile sample: how many times the stack was seen.
type stackSample struct {
	count int64
	stack []string // function names, innermost first, inlined frames expanded
}

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

var errProto = errors.New("malformed profile")

func (p *protoBuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return field, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints decodes a repeated integer field, packed or not.
func uints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a CPU profile into its samples.
func parseProfile(raw []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string table index
		strs      []string
	)
	top := protoBuf{body}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch field {
		case 2: // Sample
			var s rawSample
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.values, err = uints(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := protoBuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// The buckets host time is attributed to: the repo's modules named as
// the layers, the benchmark's own fill and verify code, the runtime's
// collector and scheduler, and the rest.
var layerNames = []string{"sim", "mem", "datatype", "core", "gpu", "cuda", "pcie", "ib", "mpi", "model", "workload", "baseline"}

const internalPrefix = "gpuddt/internal/"

// layerOf returns the layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	for _, l := range layerNames {
		if pkg == l {
			return l
		}
	}
	return ""
}

// bucketOf applies the attribution rule to one stack (innermost frame
// first):
//
//  1. a stack that passes through (*run).owned — the benchmark's own
//     payload generation and verification — is "bench", whatever its
//     leaf;
//  2. otherwise the innermost frame in one of the layer packages names
//     the bucket, so runtime work (memmove, mallocgc, chansend) is
//     charged to the layer that asked for it;
//  3. stacks with no layer frame are the collector's background work,
//     the scheduler (which runs on its own stack, detached from the
//     goroutine it switches away from), or "other".
func bucketOf(stack []string) string {
	layer := ""
	for _, fn := range stack {
		if strings.HasSuffix(fn, ".(*run).owned") {
			return "bench"
		}
		if layer == "" {
			layer = layerOf(fn)
		}
	}
	if layer != "" {
		return layer
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcMarkTermination"),
			strings.HasPrefix(fn, "runtime.gcStart"), strings.HasPrefix(fn, "runtime.GC"):
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goexit0",
			"runtime.mcall", "runtime.gosched_m", "runtime.mstart", "runtime.sysmon":
			return "runtime_sched"
		}
	}
	return "other"
}

// hostShares attributes a profile. Layer shares are fractions of the
// samples outside "bench", because that is what wall_ms times: they sum
// to one and bound what a faster layer can save. bench is the
// benchmark's own share of all samples. memmove_leaf and sim_engine cut
// across the buckets: the share of non-bench samples whose innermost
// frame is runtime.memmove, and whose stack enters the goroutine-per-
// process engine at all.
func hostShares(samples []stackSample) map[string]float64 {
	counts := make(map[string]int64)
	var total, memmove, engine int64
	for _, s := range samples {
		b := bucketOf(s.stack)
		counts[b] += s.count
		total += s.count
		if b == "bench" || len(s.stack) == 0 {
			continue
		}
		if s.stack[0] == "runtime.memmove" {
			memmove += s.count
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, internalPrefix+"sim.(*Engine).") || strings.HasPrefix(fn, internalPrefix+"sim.(*Proc).") {
				engine += s.count
				break
			}
		}
	}
	out := make(map[string]float64)
	window := total - counts["bench"]
	if total == 0 || window == 0 {
		return out
	}
	for b, n := range counts {
		out["host.share."+b] = float64(n) / float64(window)
	}
	out["host.share.bench"] = float64(counts["bench"]) / float64(total)
	out["host.share.memmove_leaf"] = float64(memmove) / float64(window)
	out["host.share.sim_engine"] = float64(engine) / float64(window)
	out["host.profile_samples"] = float64(total)
	return out
}
