// Command pingpong runs one configurable GPU-datatype ping-pong on the
// simulated cluster and reports latency and achieved bandwidth.
//
// Example:
//
//	pingpong -topo 2gpu -type triangular -n 4096 -iters 5
//	pingpong -topo ib -type vector -n 8192 -impl mvapich
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpuddt/internal/baseline"
	"gpuddt/internal/bench"
	"gpuddt/internal/bench/cli"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// Run executes the command against args (without the program name) and
// returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("pingpong", flag.ContinueOnError)
	fs.SetOutput(errOut)
	topoFlag := fs.String("topo", "2gpu", "topology: 1gpu, 2gpu, ib")
	typeFlag := fs.String("type", "vector", "datatype: vector, triangular, contiguous, transpose, vec2contig")
	n := fs.Int("n", 4096, "matrix size N (N x N doubles)")
	iters := fs.Int("iters", 5, "measured iterations")
	impl := fs.String("impl", "ours", "implementation: ours, mvapich")
	frag := fs.Int64("frag", 0, "pipeline fragment bytes (0 = default 1 MiB)")
	host := fs.Bool("host", false, "place the data in host memory (CPU datatype engine)")
	blocks := fs.Int("blocks", 0, "restrict pack/unpack kernels to this many CUDA blocks")
	direct := fs.Bool("direct-unpack", false, "unpack directly from remote GPU memory (no staging)")
	verbose := fs.Bool("verbose", false, "print a link-utilization report after the run")
	traceFlag := cli.Trace(fs)
	phases := fs.Bool("phases", false, "print the per-message phase attribution (pack vs wire vs unpack)")
	timeline := fs.Bool("timeline", false, "print the plain-text span timeline")
	prof := cli.Profiles(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, ok := prof.Start(errOut)
	defer stopProf()
	if !ok {
		return 1
	}

	topo, ok := map[string]bench.Topology{"1gpu": bench.OneGPU, "2gpu": bench.TwoGPU, "ib": bench.TwoNode}[*topoFlag]
	if !ok {
		fmt.Fprintf(errOut, "pingpong: unknown topology %q\n", *topoFlag)
		return 2
	}

	var dt0, dt1 *datatype.Datatype
	switch *typeFlag {
	case "vector":
		dt0 = shapes.SubMatrix(*n, *n, *n+32)
	case "triangular":
		dt0 = shapes.LowerTriangular(*n)
	case "contiguous":
		dt0 = shapes.FullMatrix(*n)
	case "transpose":
		dt0 = shapes.Transpose(*n)
		dt1 = shapes.FullMatrix(*n)
	case "vec2contig":
		dt0 = shapes.SubMatrix(*n, *n, *n+32)
		dt1 = shapes.FullMatrix(*n)
	default:
		fmt.Fprintf(errOut, "pingpong: unknown type %q\n", *typeFlag)
		return 2
	}

	var strategy mpi.Strategy
	if *impl == "mvapich" {
		strategy = &baseline.MVAPICHStrategy{}
	} else if *impl != "ours" {
		fmt.Fprintf(errOut, "pingpong: unknown impl %q\n", *impl)
		return 2
	}

	spec := bench.PingPongSpec{
		Topo:   topo,
		Dt0:    dt0,
		Dt1:    dt1,
		Count:  1,
		OnHost: *host,
		Iters:  *iters,
		Tuning: &mpi.Tuning{
			Strategy:           strategy,
			FragBytes:          *frag,
			DirectRemoteUnpack: *direct,
		},
		BlockCap: *blocks,
	}
	if *verbose {
		spec.Trace = errOut
	}
	if *phases {
		spec.TracePhases = out
	}
	if *timeline {
		spec.TraceTimeline = out
	}
	spec.TraceJSON = traceFlag.Writer()
	rt := bench.PingPong(spec)
	if code := traceFlag.Flush("trace", out, errOut); code != 0 {
		return code
	}
	fmt.Fprintf(out, "topology=%s type=%s N=%d impl=%s packed=%s\n",
		topo, *typeFlag, *n, *impl, fmtBytes(dt0.Size()))
	fmt.Fprintf(out, "round-trip: %v   one-way: %v   bandwidth: %.2f GB/s\n",
		rt, rt/2, sim.GBps(dt0.Size(), rt/2))
	return 0
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
