package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSingleFigure selects one figure at a time; the kernel-level
// rows are what cmd/kernels used to run.
func TestRunSingleFigure(t *testing.T) {
	for _, fig := range []string{"fig9", "fig6", "fig7", "ablation-unitsize"} {
		var out, errOut bytes.Buffer
		if code := Run([]string{"-quick", "-figure", fig, "-sizes", "512"}, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", fig, code, errOut.String())
		}
		if !strings.HasPrefix(out.String(), "# "+fig+" ") {
			t.Errorf("%s: output does not start with the figure's header:\n%s", fig, out.String())
		}
		// The unit-size ablation sweeps S at a fixed N; the others sweep -sizes.
		if fig != "ablation-unitsize" && !strings.Contains(out.String(), "\n512 ") {
			t.Errorf("%s: output does not include the requested size:\n%s", fig, out.String())
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-figure", "fig6", "-sizes", "512", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), ",") {
		t.Errorf("CSV output has no commas:\n%s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		what string
		args []string
	}{
		{"unknown figure", []string{"-figure", "nope"}},
		{"unknown figure number", []string{"-figure", "fig99"}},
		{"bad size", []string{"-sizes", "banana"}},
		{"bad size for one figure", []string{"-figure", "fig6", "-sizes", "x"}},
		{"non-positive size", []string{"-sizes", "512,0"}},
		{"bad parallelism", []string{"-parallel", "0"}},
		{"undefined flag", []string{"-bench", "fig6"}},
	} {
		var out, errOut bytes.Buffer
		if code := Run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", c.what, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "ddtbench") {
			t.Errorf("%s: stdout %q, stderr %q", c.what, out.String(), errOut.String())
		}
	}
}

func TestRunAblationsAlias(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-quick", "-figure", "ablations", "-sizes", "512"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, id := range []string{"ablation-unitsize", "ablation-fragsize", "ablation-remoteunpack"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-figure ablations output is missing %s", id)
		}
	}
}

// TestRunParallelMatchesSerial checks the -parallel flag changes nothing
// but wall clock: byte-identical stdout.
func TestRunParallelMatchesSerial(t *testing.T) {
	args := []string{"-quick", "-figure", "fig10b", "-sizes", "512,1024", "-csv"}
	var serial, par, errOut bytes.Buffer
	if code := Run(args, &serial, &errOut); code != 0 {
		t.Fatalf("serial: exit %d, stderr: %s", code, errOut.String())
	}
	if code := Run(append([]string{"-parallel", "4"}, args...), &par, &errOut); code != 0 {
		t.Fatalf("parallel: exit %d, stderr: %s", code, errOut.String())
	}
	if serial.String() != par.String() {
		t.Fatalf("-parallel 4 output differs from serial\nserial:\n%s\nparallel:\n%s", serial.String(), par.String())
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	var out, errOut bytes.Buffer
	code := Run([]string{
		"-quick", "-figure", "fig9", "-sizes", "512",
		"-cpuprofile", cpu, "-memprofile", heap,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, p := range []string{cpu, heap} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// BenchmarkDdtbenchParallel times a reduced sweep serially and with the
// parallel driver; compare the two sub-benchmarks to see the speedup on
// multi-core hosts (on a single-core host they coincide).
func BenchmarkDdtbenchParallel(b *testing.B) {
	args := []string{"-quick", "-figure", "fig10b", "-sizes", "512,1024"}
	for _, cfg := range []struct {
		name string
		pre  []string
	}{
		{"serial", nil},
		{"parallel4", []string{"-parallel", "4"}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var out, errOut bytes.Buffer
				if code := Run(append(append([]string{}, cfg.pre...), args...), &out, &errOut); code != 0 {
					b.Fatalf("exit %d, stderr: %s", code, errOut.String())
				}
			}
		})
	}
}
