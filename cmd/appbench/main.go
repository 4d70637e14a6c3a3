// Command appbench runs the application-workload sweep — ML training
// (ring/tree allreduce over fused gradient buckets plus MoE sparse
// alltoallv), 2D/3D stencil halo exchange over real subarray datatypes,
// and checkpoint bursts through the collective-I/O layer — on simulated
// fat-tree clusters at two fabric oversubscription levels, then the
// two-job interference study (training vs stencil co-scheduled on one
// oversubscribed cluster) under the packed, spread and striped
// placement policies. It emits a machine-readable BENCH_apps.json.
//
// Every point is payload-verified: workloads generate all traffic from
// seeded word generators and check every received byte on the receiving
// rank, and each interference job's payload digest must be
// byte-identical co-scheduled and alone — contention may move time,
// never data. Reported times are virtual (simulated), so the report is a
// pure function of the source: CI compares a fresh one with the
// committed BENCH_apps.json byte for byte.
//
// Usage:
//
//	appbench                    # JSON to stdout (full sweep)
//	appbench -out BENCH_apps.json
//	appbench -quick             # CI smoke sweep
package main

import (
	"flag"
	"io"
	"os"

	"gpuddt/internal/bench"
	"gpuddt/internal/bench/cli"
	"gpuddt/internal/workload"
)

// Report is the BENCH_apps.json schema. The header mirrors
// BENCH_scale.json so downstream tooling parses both the same way.
type Report struct {
	GeneratedBy  string                 `json:"generated_by"`
	RanksPerNode int                    `json:"ranks_per_node"`
	Apps         []bench.AppPoint       `json:"apps"`
	Interference []workload.StudyResult `json:"interference"`
}

// Run executes the command and returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("appbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "small sweep for a fast smoke run")
	return cli.Report(fs, cli.Profiles(fs), "application benchmark report", args, out, errOut, func() (any, error) {
		sw := bench.DefaultAppSweep()
		if *quick {
			sw = bench.QuickAppSweep()
		}
		pts, err := bench.RunApps(sw)
		if err != nil {
			return nil, err
		}
		studies, err := bench.RunAppStudies(sw)
		if err != nil {
			return nil, err
		}
		return Report{
			GeneratedBy:  "cmd/appbench",
			RanksPerNode: sw.RanksPerNode,
			Apps:         pts,
			Interference: studies,
		}, nil
	})
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}
