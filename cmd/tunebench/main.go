// Command tunebench runs the adaptive protocol auto-tuner: it searches
// the knob space (eager threshold, pipeline fragment size, collective
// algorithm family) against simulated virtual time on a fixed point set
// — point-to-point traffic, reductions on oversubscribed fat trees, and
// whole application workloads — persists the winning configurations as
// a versioned tuning table, and emits a tuned-vs-default report plus
// the in-network-reduction curve (flat vs hierarchical vs switch).
//
// Everything is deterministic: the search is an exhaustive grid over
// virtual time, so two runs of the same binary produce byte-identical
// tables and reports. Every tuned configuration is digest-verified
// against the defaults — a tuning may change when bytes move, never
// which bytes arrive.
//
// Usage:
//
//	tunebench                          # report JSON to stdout
//	tunebench -table TUNING.json       # also persist the tuning table
//	tunebench -out BENCH_tune.json     # write the report to a file
//	tunebench -quick                   # CI smoke point set
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpuddt/internal/bench/cli"
	"gpuddt/internal/tune"
)

// tunerSeed ties the committed table to the app-workload seeds used by
// the application objectives (the same seed BENCH_apps.json runs under).
const tunerSeed = 0xA5

// Report is the BENCH_tune.json schema.
type Report struct {
	GeneratedBy string            `json:"generated_by"`
	Seed        uint64            `json:"seed"`
	Space       string            `json:"space"`
	TableDigest string            `json:"table_digest"`
	Bench       []tune.BenchPoint `json:"bench"`
	Curve       []tune.CurvePoint `json:"curve"`
}

// Run executes the command and returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("tunebench", flag.ContinueOnError)
	tablePath := fs.String("table", "", "persist the sealed tuning table to this file")
	quick := fs.Bool("quick", false, "small point set for a fast smoke run")
	return cli.Report(fs, cli.Profiles(fs), "tuning benchmark report", args, out, errOut, func() (any, error) {
		cfg := tune.Config{Space: tune.DefaultSpace(), Points: tune.DefaultPoints(tunerSeed), Seed: tunerSeed}
		curve := tune.DefaultCurveShapes()
		if *quick {
			cfg = tune.Config{Space: tune.QuickSpace(), Points: tune.QuickPoints(tunerSeed), Seed: tunerSeed}
			curve = []tune.CurveShape{{Nodes: 8, RPN: 2, Oversub: 4, Elems: 1 << 13}}
		}
		tbl, err := tune.Run(cfg)
		if err != nil {
			return nil, err
		}
		if *tablePath != "" {
			if err := tbl.Save(*tablePath); err != nil {
				return nil, err
			}
			fmt.Fprintf(errOut, "tunebench: wrote tuning table (%d entries) to %s\n", len(tbl.Entries), *tablePath)
		}
		bpts, err := tune.RunBench(tbl, cfg.Points)
		if err != nil {
			return nil, err
		}
		cpts, err := tune.RunCurve(curve)
		if err != nil {
			return nil, err
		}
		return Report{
			GeneratedBy: "cmd/tunebench",
			Seed:        cfg.Seed,
			Space:       cfg.Space.String(),
			TableDigest: tbl.Digest,
			Bench:       bpts,
			Curve:       cpts,
		}, nil
	})
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}
