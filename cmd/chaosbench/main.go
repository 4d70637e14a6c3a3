// Command chaosbench measures how the recovery layer degrades under
// injected faults: for each topology it sweeps the fault rate and
// reports the achieved bandwidth and completion time of a fixed
// non-contiguous rendezvous transfer, in simulated (virtual) time,
// alongside the fault/retry/fallback counters that explain the slope.
// The rate-0 row of every sweep doubles as the clean baseline — with a
// nil plan the protocol code paths are untouched, so those figures are
// byte-identical to the pre-fault-subsystem simulator.
//
// Usage:
//
//	chaosbench                   # JSON to stdout
//	chaosbench -out BENCH_chaos.json
//	chaosbench -seed 3 -count 8
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"gpuddt/internal/bench/cli"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// Point is one (topology, fault rate) measurement.
type Point struct {
	Topo          string  `json:"topo"`
	Rate          float64 `json:"rate"`
	Seed          uint64  `json:"seed"`
	Bytes         int64   `json:"bytes"`
	CompletionUs  float64 `json:"completion_us"`
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	Slowdown      float64 `json:"slowdown_vs_clean"`
	Faults        int64   `json:"faults_injected"`
	Retries       int64   `json:"retries"`
	LaunchRetries int64   `json:"launch_retries"`
	Aborts        int64   `json:"protocol_aborts"`
	Fallbacks     int64   `json:"fallbacks"`
}

// Report is the BENCH_chaos.json schema. It names no host: the report
// is a pure function of the source and the flags.
type Report struct {
	GeneratedBy string  `json:"generated_by"`
	Datatype    string  `json:"datatype"`
	Count       int     `json:"count"`
	FragBytes   int64   `json:"frag_bytes"`
	Chaos       []Point `json:"chaos"`
}

// measure runs one GPU-to-GPU rendezvous transfer of (dt, count) under
// the given fault rate and returns the receive completion time (virtual)
// plus the recovery counters. It verifies the payload on every run: a
// benchmark that silently corrupted data would be measuring garbage.
func measure(topo string, dt *datatype.Datatype, count int, seed uint64, rate float64, frag int64) (Point, error) {
	var plan *fault.Plan
	if rate > 0 {
		plan = fault.NewPlan(seed, rate)
	}
	spec := cluster.ByName(topo).Tuned(&mpi.Tuning{Eager: mpi.Eager(1), FragBytes: frag})
	cfg := spec.Config()
	cfg.Faults = plan
	w := mpi.NewWorld(cfg)
	rec := sim.NewRecorder(w.Engine())

	var sent, got []byte
	var elapsed sim.Time
	w.Run(func(m *mpi.Rank) {
		switch m.Rank() {
		case 0:
			buf := m.Malloc(dt.Span(count))
			mem.FillPattern(buf, 42)
			sent = datatype.PackImage(dt, count, buf.Bytes())
			m.Barrier()
			m.Send(buf, dt, count, 1, 5)
		case 1:
			buf := m.Malloc(dt.Span(count))
			m.Barrier()
			t0 := m.Now()
			m.Recv(buf, dt, count, 0, 5)
			elapsed = m.Now() - t0
			got = datatype.PackImage(dt, count, buf.Bytes())
		}
	})
	if !bytes.Equal(sent, got) {
		return Point{}, fmt.Errorf("%s rate %g seed %d: payload corrupted", topo, rate, seed)
	}
	total := int64(len(sent))
	return Point{
		Topo:          topo,
		Rate:          rate,
		Seed:          seed,
		Bytes:         total,
		CompletionUs:  elapsed.Micros(),
		BandwidthGBps: sim.GBps(total, elapsed),
		Faults:        w.Faults().Total(),
		Retries:       rec.Counter("mpi.retry"),
		LaunchRetries: rec.Counter("gpu.launch.retry"),
		Aborts:        rec.Counter("mpi.protocol.abort"),
		Fallbacks:     rec.Counter("mpi.fallback"),
	}, nil
}

// Run executes the command and returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("chaosbench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "fault plan seed")
	count := 8
	fs.Func("count", "datatype count per transfer, at least 1 (default 8)", func(s string) (err error) {
		if count, err = strconv.Atoi(s); err == nil && count < 1 {
			err = errors.New("must be >= 1")
		}
		return err
	})
	frag := fs.Int64("frag", 16<<10, "pipeline fragment size in bytes")
	return cli.Report(fs, nil, "chaos benchmark report", args, out, errOut, func() (any, error) {
		dt := shapes.SubMatrix(128, 128, 256)
		rep := Report{
			GeneratedBy: "cmd/chaosbench",
			Datatype:    "submatrix_128x128_ld256",
			Count:       count,
			FragBytes:   *frag,
		}
		for _, topo := range []string{"1gpu", "2gpu", "ib"} {
			var clean float64
			for _, rate := range []float64{0, 0.01, 0.05, 0.1, 0.2} {
				pt, err := measure(topo, dt, count, *seed, rate, *frag)
				if err != nil {
					return nil, err
				}
				if rate == 0 {
					clean = pt.CompletionUs
				}
				if clean > 0 {
					pt.Slowdown = pt.CompletionUs / clean
				}
				rep.Chaos = append(rep.Chaos, pt)
			}
		}
		return rep, nil
	})
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}
