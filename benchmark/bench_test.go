package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// toyRun runs one repetition of a workload at test size.
func toyRun(t *testing.T, name string, r *run) *run {
	t.Helper()
	wl := findWorkload(name)
	if wl == nil {
		t.Fatalf("no workload %q", name)
	}
	wl.newDriver(true)(r)
	return r
}

func TestDriversVerifyAtToySize(t *testing.T) {
	for _, wl := range workloads {
		r := toyRun(t, wl.name, &run{seed: 1})
		if r.attempted == 0 || r.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.name, r.failed, r.attempted, r.errs)
		}
		if r.virtualUs <= 0 || r.phase[phRun] <= 0 {
			t.Errorf("%s: virtual_us %v, window %v: both must be positive", wl.name, r.virtualUs, r.phase[phRun])
		}
	}
}

// The negative control: one flipped received byte and one flipped
// collective digest must each be counted as a failed operation.
func TestTamperingIsCaught(t *testing.T) {
	for name, want := range map[string]int{
		"p2p_bw":        8, // the first message of each point
		"coll_real":     2, // one byte in one arm, one digest in another
		"coll_modelled": 1, // one digest
		"overlap_icoll": 1, // one byte
	} {
		if r := toyRun(t, name, &run{seed: 1, tamper: true}); r.failed != want {
			t.Errorf("%s: tampering failed %d operations, want %d: %v", name, r.failed, want, r.errs)
		}
	}
}

// The seed changes payload bytes and never shapes: virtual time is
// seed-independent, payload digests are not. The modelled world derives
// its payloads from fixed seed bases, so there the digest holds still.
func TestSeedMovesBytesNotTime(t *testing.T) {
	for _, wl := range workloads {
		a := toyRun(t, wl.name, &run{seed: 1})
		b := toyRun(t, wl.name, &run{seed: 2})
		if a.virtualUs != b.virtualUs {
			t.Errorf("%s: virtual_us %v with seed 1, %v with seed 2", wl.name, a.virtualUs, b.virtualUs)
		}
		if same, want := a.digest == b.digest, wl.name == "coll_modelled"; same != want {
			t.Errorf("%s: payload digests %x and %x: equal=%v, want %v", wl.name, a.digest, b.digest, same, want)
		}
	}
}

func TestTracedRepetitionAttributesLayers(t *testing.T) {
	r := toyRun(t, "p2p_bw", &run{seed: 1, lt: newLayerTrace()})
	m := r.lt.metrics(r)
	if got, want := m["mpi.msgs"], float64(r.attempted); got != want {
		t.Errorf("mpi.msgs = %v, want one per verified message (%v)", got, want)
	}
	for _, name := range []string{"mpi.virt.wire_us", "pcie.bytes", "ib.wire_bytes", "gpu.kernels", "core.dev.hit", "cuda.memcpy2d.count", "fidelity.pcie_frac_V"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want it positive on p2p_bw", name, m[name])
		}
	}
	if plain := toyRun(t, "p2p_bw", &run{seed: 1}); plain.virtualUs != r.virtualUs {
		t.Errorf("recording moved virtual time: %v traced, %v plain", r.virtualUs, plain.virtualUs)
	}
	for k := range m {
		if !isLayerMetric(k) {
			t.Errorf("layer metric %q is not in the registry", k)
		}
	}
}

func TestEstimators(t *testing.T) {
	xs := []float64{5, 3, 9, 1, 7}
	if minOf(xs) != 1 || median(xs) != 5 || median(xs[:4]) != 4 {
		t.Errorf("min %v, median %v, median of four %v", minOf(xs), median(xs), median(xs[:4]))
	}
	if v, p := pctTenBeyond(xs); v != 5 || p != 50 {
		t.Errorf("five samples: %v at p%v, want the median at p50", v, p)
	}
	// 30 samples 1..30: the 20th has exactly ten beyond it.
	var thirty []float64
	for i := 30; i >= 1; i-- {
		thirty = append(thirty, float64(i))
	}
	if v, p := pctTenBeyond(thirty); v != 20 || p < 66.6 || p > 66.7 {
		t.Errorf("thirty samples: %v at p%v, want 20 at p66.7", v, p)
	}
	if v, _ := pctTenBeyond(thirty[:11]); v != 20 { // 30..20: the smallest has ten beyond it
		t.Errorf("eleven samples: %v, want the minimum 20", v)
	}
}

func TestBucketing(t *testing.T) {
	const in = "gpuddt/internal/"
	for _, c := range []struct {
		want  string
		stack []string
	}{
		// Runtime work is charged to the layer that asked for it.
		{"mem", []string{"runtime.memmove", in + "mem.Copy", in + "cuda.(*Ctx).Memcpy", in + "mpi.(*Rank).Send", "main.(*run).pingPong.func1"}},
		{"sim", []string{"runtime.chanrecv", in + "sim.(*Proc).park", in + "sim.(*Proc).Sleep", in + "gpu.(*Device).chargeDRAM"}},
		{"mpi", []string{"runtime.mallocgc", in + "mpi.(*Sig64).Write", in + "model.(*world).msgSig"}},
		// Packages that are not layers pass the charge outward.
		{"ib", []string{in + "fault.(*Injector).Check", in + "ib.(*HCA).Send"}},
		// The benchmark's own fill and verify code, whatever the leaf.
		{"bench", []string{"runtime.memmove", in + "datatype.(*Converter).Pack", "main.(*run).pingPong.func1.2", "main.(*run).owned", in + "sim.(*Engine).spawn.func1.1"}},
		{"bench", []string{in + "mem.SyntheticAt", "gpuddt/benchmark.(*run).owned"}},
		// No layer frame: collector, scheduler, or other.
		{"runtime_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"runtime_sched", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"other", []string{"main.assemble", "main.main"}},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}

	sh := hostShares([]stackSample{
		{6, []string{"runtime.memmove", in + "mem.Copy", in + "sim.(*Engine).spawn.func1.1"}},
		{2, []string{in + "model.(*world).HandleEvent", in + "sim.(*ShardCtx).drain"}},
		{2, []string{"runtime.memmove", "main.(*run).owned"}},
	})
	for name, want := range map[string]float64{
		"host.share.mem": 0.75, "host.share.model": 0.25, "host.share.bench": 0.2,
		"host.share.memmove_leaf": 0.75, "host.share.sim_engine": 0.75, "host.share.sim": 0,
	} {
		if sh[name] != want {
			t.Errorf("%s = %v, want %v", name, sh[name], want)
		}
	}
}

var spinSink uint64

//go:noinline
func profiledSpin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
}

func TestProfileDecoder(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("no CPU profile here: %v", err)
	}
	profiledSpin(150 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".profiledSpin")
		}
	}
	if !found {
		t.Errorf("%d samples, none with profiledSpin in its stack", len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestCompareBounds(t *testing.T) {
	for _, c := range []struct {
		a, b, bound float64
		want        string
	}{
		{100, 100, 0, "same"}, {100, 100.001, 0, "worse"}, {100, 99, 0, "better"}, // exact
		{100, 109, 0.1, "same"}, {100, 111, 0.1, "worse"}, {100, 89, 0.1, "better"}, {100, 91, 0.1, "same"},
		{0, 0, 0, "same"}, {0, 0.01, 0, "worse"}, // fail_frac
	} {
		if got := verdict(c.a, c.b, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, bound %v) = %q, want %q", c.a, c.b, c.bound, got, c.want)
		}
	}

	bounds := map[string]float64{"setup_s": 0.25, "wall_ms": 0.1, "allocs_per_op": 0.01, "alloc_mb_per_op": 0.02}
	a := &workloadReport{VirtualUs: 50, E2E: map[string]float64{"setup_s": 1, "wall_ms": 100, "allocs_per_op": 1000, "alloc_mb_per_op": 10}}
	b := &workloadReport{VirtualUs: 50, E2E: map[string]float64{"setup_s": 1.2, "wall_ms": 120, "allocs_per_op": 1020, "alloc_mb_per_op": 10.1}}
	verdicts := func() map[string]string {
		m := make(map[string]string)
		for _, row := range compareWorkload(a, b, bounds) {
			m[row.metric] = row.verdict
		}
		return m
	}
	want := map[string]string{"virtual_us": "same", "fail_frac": "same", "setup_s": "same", "wall_ms": "worse", "allocs_per_op": "worse", "alloc_mb_per_op": "same"}
	if got := verdicts(); !maps.Equal(got, want) {
		t.Errorf("quiet host: %v, want %v", got, want)
	}
	// On a noisy host the host-time verdicts are unresolved; counts stand.
	b.Noisy = true
	want["setup_s"], want["wall_ms"] = "unresolved", "unresolved"
	if got := verdicts(); !maps.Equal(got, want) {
		t.Errorf("noisy host: %v, want %v", got, want)
	}
}

// BENCHMARK.json and the registries in this package describe the same
// benchmark.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "go run ./benchmark" || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, registry has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d characters), registry has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, registry has %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded {
				t.Errorf("%s %d: %+v, registry has %+v", kind, i, m, d)
			}
			if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eDefs, true)
	check("per_layer", spec.PerLayer, layerDefs, false)
}

func TestResultLine(t *testing.T) {
	wr := workloadReport{Attempted: 7, E2E: map[string]float64{"setup_s": 0.5, "wall_ms": 12.25, "allocs_per_op": 3, "alloc_mb_per_op": 1.5}}
	var out bytes.Buffer
	if err := wr.printResult(&out, false); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 7 || len(res.Metrics) != len(e2eDefs) || res.Metrics["wall_ms"].Value != 12.25 || res.Metrics["wall_ms"].Unit != "ms" {
		t.Errorf("result line %s", out.String())
	}
}
