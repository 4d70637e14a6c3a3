// Command benchmark is the repo's benchmark: six named workloads, two
// clocks (virtual time, which is the product, and host time, which is
// what producing it costs), and per-layer attribution of both.
//
//	go run ./benchmark -seed N -out FILE            # everything
//	go run ./benchmark -mode e2e -workload p2p_lat  # one workload, end to end only
//	go run ./benchmark compare A.json B.json        # apply the bounds of BENCHMARK.json
//
// The pipeline runs one workload per invocation:
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the last line of stdout. README.md defines every workload
// and metric, and lists the API surface this package compiles against.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

// rounds is how many child processes share a workload's repetitions.
// With several workloads the rounds interleave (all six, then all six
// again), which spreads each workload's samples over the whole run: the
// host drifts by 10-20 % over tens of seconds.
const rounds = 3

// noisyRatio marks a run whose reference spin's median exceeds its
// minimum by more than this: host-time verdicts are then unresolved.
const noisyRatio = 1.15

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "all", "e2e (timed, tracing off), layers (traced, profiled) or all")
	name := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Uint64("seed", 1, "payload seed: changes bytes, never shapes")
	seconds := fs.Int("seconds", 12, "timed repetitions per workload, in seconds")
	out := fs.String("out", "", "write the JSON report to this file")
	traceFlag := fs.Int("trace", -1, "pipeline contract: 0 is -mode e2e, 1 is -mode layers, and the last line of stdout is the result object")
	child := fs.String("child", "", "internal: run one pass (e2e or layers) of -workload in this process")
	budget := fs.Duration("budget", 0, "internal: time budget of the child's repetitions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *traceFlag {
	case -1:
	case 0:
		*mode = "e2e"
	case 1:
		*mode = "layers"
	default:
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *mode != "e2e" && *mode != "layers" && *mode != "all" {
		fmt.Fprintf(stderr, "benchmark: unknown -mode %q\n", *mode)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1")
		return 2
	}
	sel := workloads
	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", *name)
			return 2
		}
		sel = []workloadDef{*wl}
	}

	if *child != "" {
		if len(sel) != 1 {
			fmt.Fprintln(stderr, "benchmark: -child needs -workload")
			return 2
		}
		run := childE2E
		if *child == "layers" {
			run = childLayers
		}
		if err := run(stdout, &sel[0], *seed, *budget); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if *traceFlag >= 0 && len(sel) != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace needs -workload")
		return 2
	}

	rep, err := runAll(sel, *mode, *seed, *seconds, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	rep.print(stdout)
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *traceFlag >= 0 {
		if err := rep.Workloads[0].printResult(stdout, *traceFlag == 1); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}

// runAll runs the selected passes over the selected workloads, one
// child process at a time: the layer pass never overlaps timed
// repetitions.
func runAll(sel []workloadDef, mode string, seed uint64, seconds int, progress io.Writer) (*report, error) {
	rep := &report{Env: envelope{
		GitRev:          gitRev(),
		GoVersion:       runtime.Version(),
		NumCPU:          runtime.NumCPU(),
		ChildGOMAXPROCS: 1,
		Seed:            seed,
		Seconds:         seconds,
		Mode:            mode,
	}}
	e2e := make(map[string][]roundResult)
	layers := make(map[string]*childResult)
	if mode != "layers" {
		share := time.Duration(seconds) * time.Second / rounds
		for round := 0; round < rounds; round++ {
			for _, wl := range sel {
				fmt.Fprintf(progress, "benchmark: e2e round %d/%d %s\n", round+1, rounds, wl.name)
				start := time.Now()
				res, err := spawn("e2e", wl.name, seed, share)
				if err != nil {
					return nil, err
				}
				e2e[wl.name] = append(e2e[wl.name], roundResult{
					childResult: res,
					setupS:      time.Unix(0, res.WarmEndNs).Sub(start).Seconds(),
				})
			}
		}
	}
	if mode != "e2e" {
		// The profile needs three seconds of samples at least.
		share := max(time.Duration(seconds)*time.Second/2, 3*time.Second)
		for _, wl := range sel {
			fmt.Fprintf(progress, "benchmark: layer pass %s\n", wl.name)
			res, err := spawn("layers", wl.name, seed, share)
			if err != nil {
				return nil, err
			}
			layers[wl.name] = res
		}
	}
	for _, wl := range sel {
		rep.Workloads = append(rep.Workloads, assemble(wl.name, e2e[wl.name], layers[wl.name]))
	}
	return rep, nil
}

// spawn runs one pass of one workload in a child process and waits for
// it. The child's stderr is ours; its stdout is the result.
func spawn(pass, name string, seed uint64, budget time.Duration) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", pass, "-workload", name,
		"-seed", fmt.Sprint(seed), "-budget", budget.String())
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", pass, name, err)
	}
	res := new(childResult)
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", pass, name, err)
	}
	return res, nil
}

// gitRev is the revision the binary was built from, when the build
// recorded one (a pipeline checkout is not a git repository).
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// roundResult is one e2e child and the set-up time the parent saw:
// from just before the child was started to the end of its warm-up.
type roundResult struct {
	*childResult
	setupS float64
}

// assemble reduces a workload's children to its report.
func assemble(name string, e2e []roundResult, layers *childResult) workloadReport {
	w := workloadReport{Name: name}
	add := func(c *childResult) {
		w.Attempted += c.Attempted
		w.Failed += c.Failed
		w.Errors = append(w.Errors, c.Errors...)
		// Rounds are separate processes: they must agree too.
		w.Attempted++
		digest := fmt.Sprintf("%016x", c.Digest)
		if w.Digest == "" {
			w.VirtualUs, w.Digest = c.VirtualUs, digest
		} else if c.VirtualUs != w.VirtualUs || digest != w.Digest {
			w.Failed++
			w.Errors = append(w.Errors, fmt.Sprintf("processes disagree: virtual_us %v vs %v", c.VirtualUs, w.VirtualUs))
		}
	}
	if len(e2e) > 0 {
		var setups, windows, mallocs, allocMB, refs []float64
		for _, r := range e2e {
			add(r.childResult)
			setups = append(setups, r.setupS)
			refs = append(refs, r.RefMs...)
			for _, s := range r.Reps {
				windows = append(windows, s.WindowMs)
				mallocs = append(mallocs, float64(s.Mallocs))
				allocMB = append(allocMB, s.AllocMB)
			}
		}
		w.E2E = map[string]float64{
			"setup_s":         median(setups),
			"wall_ms":         minOf(windows),
			"allocs_per_op":   median(mallocs),
			"alloc_mb_per_op": median(allocMB),
		}
		w.Setups = setups
		w.Reps = len(windows)
		w.WallMsMed = median(windows)
		w.WallMsPct, w.WallPct = pctTenBeyond(windows)
		w.RefMsMed, w.RefMsMin = median(refs), minOf(refs)
		w.Noisy = w.RefMsMed > noisyRatio*w.RefMsMin
	}
	if layers != nil {
		add(layers)
		w.Layers = layers.Layers
		if len(e2e) == 0 {
			w.Noisy = w.Layers["host.ref_ratio"] > noisyRatio
		}
	}
	if w.Attempted > 0 {
		w.FailFrac = float64(w.Failed) / float64(w.Attempted)
	}
	return w
}

// report is the JSON document -out writes and compare reads.
type report struct {
	Env       envelope         `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type envelope struct {
	GitRev          string `json:"git_rev"`
	GoVersion       string `json:"go_version"`
	NumCPU          int    `json:"nproc"`
	ChildGOMAXPROCS int    `json:"gomaxprocs"`
	Seed            uint64 `json:"seed"`
	Seconds         int    `json:"seconds"`
	Mode            string `json:"mode"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	// The exact end-to-end metrics.
	VirtualUs float64 `json:"virtual_us"`
	FailFrac  float64 `json:"fail_frac"`
	Digest    string  `json:"payload_digest"`

	// The bounded end-to-end metrics (absent in -mode layers), and what
	// is printed beside wall_ms without being gated.
	E2E       map[string]float64 `json:"e2e,omitempty"`
	Setups    []float64          `json:"setup_s_rounds,omitempty"`
	Reps      int                `json:"reps,omitempty"`
	WallMsMed float64            `json:"wall_ms_med,omitempty"`
	WallMsPct float64            `json:"wall_ms_pct,omitempty"`
	WallPct   float64            `json:"wall_pct,omitempty"`
	RefMsMed  float64            `json:"ref_ms_med,omitempty"`
	RefMsMin  float64            `json:"ref_ms_min,omitempty"`
	Noisy     bool               `json:"noisy"`

	Layers map[string]float64 `json:"layers,omitempty"` // absent in -mode e2e
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes every metric by name, with its unit.
func (rep *report) print(w io.Writer) {
	e := rep.Env
	fmt.Fprintf(w, "# gpuddt benchmark: rev %s, %s, nproc %d, GOMAXPROCS %d per child, seed %d, %d s per workload, mode %s\n",
		e.GitRev, e.GoVersion, e.NumCPU, e.ChildGOMAXPROCS, e.Seed, e.Seconds, e.Mode)
	for _, wr := range rep.Workloads {
		verdict := "verified"
		if wr.Failed > 0 {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "\n## %s: %s, %d of %d operations failed\n", wr.Name, verdict, wr.Failed, wr.Attempted)
		for _, msg := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", msg)
		}
		row := func(name string, v float64, unit, note string) {
			fmt.Fprintf(w, "  %-32s %18.6g %-6s %s\n", name, v, unit, note)
		}
		row("virtual_us", wr.VirtualUs, "us", "exact; payload digest "+wr.Digest)
		row("fail_frac", wr.FailFrac, "ratio", "exact")
		if wr.E2E != nil {
			for _, d := range e2eDefs {
				note := ""
				if d.name == "wall_ms" {
					note = fmt.Sprintf("minimum of %d repetitions; median %.4g, p%.0f %.4g; reference spin %.4g ms (min %.4g)",
						wr.Reps, wr.WallMsMed, wr.WallPct, wr.WallMsPct, wr.RefMsMed, wr.RefMsMin)
					if wr.Noisy {
						note += "; NOISY HOST"
					}
				}
				row(d.name, wr.E2E[d.name], d.unit, note)
			}
		}
		if wr.Layers != nil {
			for _, d := range layerDefs {
				row(d.name, wr.Layers[d.name], d.unit, paperValues[d.name])
			}
		}
	}
}

// printResult writes the pipeline's result object: the end-to-end
// metrics BENCHMARK.json bounds, or with traced every per-layer metric.
func (wr *workloadReport) printResult(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := e2eDefs, wr.E2E
	if traced {
		defs, vals = layerDefs, wr.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{vals[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
