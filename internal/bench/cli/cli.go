// Package cli holds the flag plumbing shared by the benchmark
// commands: size-list parsing, CPU/heap profiling flags, the -trace
// Chrome-trace sink, JSON report writing, and the one body of the
// BENCH_*.json commands (Report). The tool name in every error string
// comes from the FlagSet.
package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"gpuddt/internal/trace"
)

// ParseSizes parses a comma-separated list of positive integers
// ("1024,4096"). On a bad element it prints "<tool>: bad size ..." to
// errOut and returns ok=false. Empty elements are skipped; an empty
// string yields a nil slice.
func ParseSizes(s, tool string, errOut io.Writer) ([]int, bool) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			fmt.Fprintf(errOut, "%s: bad size %q\n", tool, f)
			return nil, false
		}
		out = append(out, n)
	}
	return out, true
}

// Profile is the -cpuprofile/-memprofile flag pair.
type Profile struct {
	tool string
	cpu  *string
	mem  *string
}

// Profiles registers the profiling flags on fs. Call Start after
// fs.Parse.
func Profiles(fs *flag.FlagSet) *Profile {
	p := &Profile{tool: fs.Name()}
	p.cpu = fs.String("cpuprofile", "", "write a CPU profile to this file")
	p.mem = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling (if requested) and arranges for the heap
// profile. The returned stop func must be deferred — it stops the CPU
// profile and writes the heap profile. ok=false means a profile file
// could not be created (reported to errOut); the stop func is still
// safe to call. A nil Profile (a command without the flags) starts
// nothing.
func (p *Profile) Start(errOut io.Writer) (stop func(), ok bool) {
	if p == nil {
		return func() {}, true
	}
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", p.tool, err)
			return stop, false
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(errOut, "%s: %v\n", p.tool, err)
			return stop, false
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *p.mem != "" {
		path := *p.mem
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(errOut, "%s: %v\n", p.tool, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(errOut, "%s: %v\n", p.tool, err)
			}
			f.Close()
		})
	}
	return stop, true
}

// TraceFlag is the -trace flag: a buffered Chrome trace-event sink
// flushed to the named file after the run.
type TraceFlag struct {
	tool string
	path *string
	buf  bytes.Buffer
}

// Trace registers the -trace flag on fs.
func Trace(fs *flag.FlagSet) *TraceFlag {
	t := &TraceFlag{tool: fs.Name()}
	t.path = fs.String("trace", "", "write a Chrome trace-event JSON of the run (chrome://tracing, Perfetto) to this file")
	return t
}

// Enabled reports whether a trace file was requested.
func (t *TraceFlag) Enabled() bool { return *t.path != "" }

// Writer returns the buffered trace destination, or nil when -trace
// was not given (so it can be assigned to an optional io.Writer field
// directly).
func (t *TraceFlag) Writer() io.Writer {
	if !t.Enabled() {
		return nil
	}
	return &t.buf
}

// WriteRuns renders the runs into the trace buffer (for commands that
// collect recorders themselves rather than streaming during the run).
func (t *TraceFlag) WriteRuns(runs ...trace.Run) error {
	return trace.WriteChrome(&t.buf, runs...)
}

// Flush writes the buffered trace to the -trace file and prints
// "<what> written to <path>". No-op when -trace was not given.
func (t *TraceFlag) Flush(what string, out, errOut io.Writer) int {
	if !t.Enabled() {
		return 0
	}
	if err := os.WriteFile(*t.path, t.buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(errOut, "%s: %v\n", t.tool, err)
		return 1
	}
	fmt.Fprintf(out, "%s written to %s\n", what, *t.path)
	return 0
}

// WriteJSON marshals v (indented, trailing newline) and writes it to
// outPath, or to out when outPath is empty. what names the artifact in
// the confirmation line ("chaos benchmark report").
func WriteJSON(v any, outPath, what, tool string, out, errOut io.Writer) int {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(errOut, "%s: %v\n", tool, err)
		return 1
	}
	enc = append(enc, '\n')
	if outPath == "" {
		if _, err := out.Write(enc); err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", tool, err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fmt.Fprintf(errOut, "%s: %v\n", tool, err)
		return 1
	}
	fmt.Fprintf(out, "%s written to %s\n", what, outPath)
	return 0
}

// Report is the body of a BENCH_*.json command (appbench, scalebench,
// chaosbench): fs carries the tool's own flags, Report adds
// -out, parses args (exit 2 on a bad flag), runs build under prof (nil:
// the tool has no profile flags), and writes the value build returns
// with WriteJSON; a build error is one "<tool>: <err>" line and exit 1.
// what names the report in the confirmation line.
func Report(fs *flag.FlagSet, prof *Profile, what string, args []string, out, errOut io.Writer, build func() (any, error)) int {
	fs.SetOutput(errOut)
	outPath := fs.String("out", "", "write the JSON report to this file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, ok := prof.Start(errOut)
	defer stopProf()
	if !ok {
		return 1
	}
	rep, err := build()
	if err != nil {
		fmt.Fprintf(errOut, "%s: %v\n", fs.Name(), err)
		return 1
	}
	return WriteJSON(rep, *outPath, what, fs.Name(), out, errOut)
}
