package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// compare applies the benchmark's own bounds to two reports of
// `go run ./benchmark -out`: one row per pair of end-to-end metric and
// workload, judged better, same, worse or unresolved.

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the file that fixes the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	var spec benchmarkSpec
	var a, b report
	for _, in := range []struct {
		path string
		v    interface{}
	}{{*specPath, &spec}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(in.path, in.v); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 1
		}
	}
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	worse := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wa := range a.Workloads {
		wb := findReport(&b, wa.Name)
		if wb == nil {
			continue
		}
		for _, row := range compareWorkload(&wa, wb, bounds) {
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%%  %s\n", wa.Name, row.metric, row.a, row.b, 100*row.change, row.verdict)
			if row.verdict == "worse" {
				worse++
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse than the bound allows\n", worse)
		return 1
	}
	return 0
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func findReport(rep *report, name string) *workloadReport {
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == name {
			return &rep.Workloads[i]
		}
	}
	return nil
}

type compareRow struct {
	metric  string
	a, b    float64
	change  float64 // (b-a)/a; every end-to-end metric is better lower
	verdict string
}

// compareWorkload judges B against A. Exact metrics compare exactly.
// Bounded metrics are worse past their bound, better past it the other
// way, and the same in between. A host-time metric is unresolved when
// either run's reference spin says the host was noisy: a verdict drawn
// from such a pair would be about the host.
func compareWorkload(a, b *workloadReport, bounds map[string]float64) []compareRow {
	var rows []compareRow
	exact := func(metric string, va, vb float64) {
		rows = append(rows, compareRow{metric, va, vb, relChange(va, vb), verdict(va, vb, 0)})
	}
	exact("virtual_us", a.VirtualUs, b.VirtualUs)
	exact("fail_frac", a.FailFrac, b.FailFrac)
	if a.E2E == nil || b.E2E == nil {
		return rows
	}
	for _, d := range e2eDefs {
		va, vb := a.E2E[d.name], b.E2E[d.name]
		v := verdict(va, vb, bounds[d.name])
		if hostTime := d.unit == "ms" || d.unit == "s"; hostTime && (a.Noisy || b.Noisy) {
			v = "unresolved"
		}
		rows = append(rows, compareRow{d.name, va, vb, relChange(va, vb), v})
	}
	return rows
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

// verdict judges a lower-is-better metric that went from a to b against
// a relative bound (0 for exact metrics).
func verdict(a, b, bound float64) string {
	switch {
	case b > a*(1+bound):
		return "worse"
	case b < a*(1-bound):
		return "better"
	}
	return "same"
}
