// Command scalebench sweeps the topology-aware collectives against
// their flat counterparts on simulated fat-tree clusters — collective x
// world size x oversubscription — and emits a machine-readable
// BENCH_scale.json. Both algorithms run on the same fabric and must
// produce byte-identical buffers on every rank; the reported times are
// virtual (simulated), so the report is a pure function of the source:
// any run on any host writes the same bytes, and CI compares its run
// with the committed file. -host adds what the host spent (wall-clock
// and Go heap per point, toolchain and CPU count in the header).
//
// The report has two sections in one array: real-payload points
// (2..256 ranks, full protocol stack) and modelled-payload points
// (mode "modelled": flyweight ranks on the sharded event engine,
// 32..16384 ranks). Modelled points are digest-verified against the
// schedules' expected payload movement, and the smaller ones re-run on
// one shard to prove the virtual times byte-identical at any count.
// Shards are heap partitions drained in turn, not cores: eight are
// faster than one because each heap is shallower.
//
// Usage:
//
//	scalebench                   # JSON to stdout (full sweep, up to 16384 ranks)
//	scalebench -out BENCH_scale.json
//	scalebench -quick            # CI smoke sweep
//	scalebench -shards 4         # event-heap partitions for modelled points
//	scalebench -sample 128       # verified ranks per modelled point
//	scalebench -host             # add host measurements (not reproducible)
package main

import (
	"flag"
	"io"
	"os"
	"runtime"

	"gpuddt/internal/bench"
	"gpuddt/internal/bench/cli"
)

// Report is the BENCH_scale.json schema. The header mirrors
// BENCH_chaos.json so downstream tooling parses both the same way.
type Report struct {
	GeneratedBy  string             `json:"generated_by"`
	GoVersion    string             `json:"go_version,omitempty"`  // -host only
	GoMaxProcs   int                `json:"go_maxprocs,omitempty"` // -host only
	NumCPU       int                `json:"num_cpu,omitempty"`     // -host only
	Datatype     string             `json:"datatype"`
	RanksPerNode int                `json:"ranks_per_node"`
	Shards       int                `json:"shards"`
	SampleRanks  int                `json:"sample_ranks"`
	Scale        []bench.ScalePoint `json:"scale"`
}

// Run executes the command and returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("scalebench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "small sweep for a fast smoke run")
	shards := fs.Int("shards", 0, "event-heap partitions for modelled points, drained in turn; results are identical at any count (0: sweep default)")
	sample := fs.Int("sample", 0, "content-verified ranks per modelled point (0: sweep default)")
	host := fs.Bool("host", false, "also report host measurements: wall_ms and heap_inuse_bytes per point, go_version, go_maxprocs, num_cpu")
	return cli.Report(fs, cli.Profiles(fs), "scale benchmark report", args, out, errOut, func() (any, error) {
		sw := bench.DefaultScaleSweep()
		msw := bench.DefaultMegaSweep()
		if *quick {
			sw = bench.QuickScaleSweep()
			msw = bench.QuickMegaSweep()
		}
		if *shards > 0 {
			msw.Shards = *shards
		}
		if *sample > 0 {
			msw.SampleRanks = *sample
		}
		sw.MeasureHost, msw.MeasureHost = *host, *host
		pts, err := bench.RunScale(sw)
		if err != nil {
			return nil, err
		}
		mpts, err := bench.RunMega(msw)
		if err != nil {
			return nil, err
		}
		rep := Report{
			GeneratedBy:  "cmd/scalebench",
			Datatype:     "submatrix_16x8_ld12",
			RanksPerNode: sw.RanksPerNode,
			Shards:       msw.Shards,
			SampleRanks:  msw.SampleRanks,
			Scale:        append(pts, mpts...),
		}
		if *host {
			rep.GoVersion, rep.GoMaxProcs, rep.NumCPU = runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()
		}
		return rep, nil
	})
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}
