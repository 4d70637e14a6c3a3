package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// One child process runs one workload, at GOMAXPROCS=1: sim.Engine runs
// exactly one goroutine at a time by design, and a second P only adds
// the Go scheduler's cross-thread wake-ups to the numbers (22 % spread
// and 35 % slower on coll_real during sizing). A fresh process per
// workload and round also keeps one workload's heap, slab pools and
// DEV caches out of another's measurements.

// repSample is what one timed repetition measured.
type repSample struct {
	WindowMs float64            `json:"window_ms"`
	Mallocs  uint64             `json:"mallocs"`
	AllocMB  float64            `json:"alloc_mb"`
	GCCycles uint32             `json:"gc_cycles"`
	PhaseMs  [numPhases]float64 `json:"phase_ms"`

	// Host spans of single arms, for the layer pass.
	Host map[string]float64 `json:"host,omitempty"`
}

// childResult is what a child prints, as one JSON object, on stdout.
type childResult struct {
	Workload  string   `json:"workload"`
	WarmEndNs int64    `json:"warm_end_unix_ns"` // wall clock at the end of the warm-up repetition
	VirtualUs float64  `json:"virtual_us"`
	Digest    uint64   `json:"digest"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	Reps  []repSample `json:"reps"`
	RefMs []float64   `json:"ref_ms"` // the reference spin around every repetition

	// Layer pass only.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// refSpin is the noise guard: fixed work whose time moves only with the
// host. An 8 MiB copy loads the memory system the way the simulator's
// payload movement does; a 1 Mi-step hash over the copy, each step a
// 64-bit finaliser depending on the last, is compute the way its event
// handling is. The work runs twice and the second pass is timed: the
// first brings the arrays back into whatever cache the repetition
// before evicted them from, so that a sample says how fast the host is
// and not what ran last.
type refSpin struct {
	src, dst []byte
	sink     uint64
}

func newRefSpin() *refSpin {
	s := &refSpin{src: make([]byte, 8<<20), dst: make([]byte, 8<<20)}
	for i := range s.src {
		s.src[i] = byte(i * 131)
	}
	return s
}

func (s *refSpin) ms() float64 {
	var t0 time.Time
	for pass := 0; pass < 2; pass++ {
		t0 = time.Now()
		copy(s.dst, s.src)
		x := s.sink
		for i := 0; i < 1<<20; i++ {
			x ^= binary.LittleEndian.Uint64(s.dst[8*i:])
			x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
			x = (x ^ x>>27) * 0x94d049bb133111eb
			x ^= x >> 31
		}
		s.sink = x
	}
	return float64(time.Since(t0)) / 1e6
}

// measure runs timed repetitions of drive until budget is spent, and at
// least minReps of them. The warm-up repetition has already run: warm
// carries the virtual time every repetition must reproduce.
func measure(res *childResult, drive func(*run), seed uint64, warm *run, minReps int, budget time.Duration) {
	spin := newRefSpin()
	deadline := time.Now().Add(budget)
	var m0, m1 runtime.MemStats
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		// Start every repetition from a collected heap, so that the
		// collector's work inside the window is the repetition's own.
		runtime.GC()
		res.RefMs = append(res.RefMs, spin.ms())
		runtime.ReadMemStats(&m0)
		r := &run{seed: seed}
		drive(r)
		runtime.ReadMemStats(&m1)
		res.absorb(r, warm)
		s := repSample{
			WindowMs: float64(r.phase[phRun]) / 1e6,
			Mallocs:  m1.Mallocs - m0.Mallocs,
			AllocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
			GCCycles: m1.NumGC - m0.NumGC,
		}
		for ph, d := range r.phase {
			s.PhaseMs[ph] = float64(d) / 1e6
		}
		s.Host = r.armSpans()
		res.Reps = append(res.Reps, s)
	}
	res.RefMs = append(res.RefMs, spin.ms())
}

// absorb adds a repetition's verified operations, plus one more: its
// virtual time and payload digest must equal the warm-up's.
func (res *childResult) absorb(r, warm *run) {
	res.Attempted += r.attempted + 1
	res.Failed += r.failed
	res.Errors = append(res.Errors, r.errs...)
	if r.virtualUs != warm.virtualUs || r.digest != warm.digest {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("repetition not deterministic: virtual_us %v (digest %x), warm-up %v (%x)",
			r.virtualUs, r.digest, warm.virtualUs, warm.digest))
	}
	if len(res.Errors) > 8 {
		res.Errors = res.Errors[:8]
	}
}

// warmUp runs the untimed first repetition: slab pools, DEV caches and
// lazy initialisation fill here, and its cost is part of setup_s.
func warmUp(res *childResult, drive func(*run), seed uint64) *run {
	warm := &run{seed: seed}
	drive(warm)
	res.WarmEndNs = time.Now().UnixNano()
	res.VirtualUs = warm.virtualUs
	res.Digest = warm.digest
	res.absorb(warm, warm)
	return warm
}

// childE2E is one round of one workload with tracing off.
func childE2E(w io.Writer, wl *workloadDef, seed uint64, budget time.Duration) error {
	runtime.GOMAXPROCS(1)
	res := &childResult{Workload: wl.name}
	drive := wl.newDriver(false)
	warm := warmUp(res, drive, seed)
	measure(res, drive, seed, warm, wl.minReps, budget)
	return json.NewEncoder(w).Encode(res)
}

// profileHz is the CPU-profile sampling rate of the layer pass.
const profileHz = 500

// childLayers is the layer pass of one workload: untraced repetitions
// under a CPU profile for the host shares and spans, then one traced
// repetition for the virtual-time attribution and the tracing
// overhead, then the micro-drivers.
func childLayers(w io.Writer, wl *workloadDef, seed uint64, budget time.Duration) error {
	runtime.GOMAXPROCS(1)
	res := &childResult{Workload: wl.name}
	drive := wl.newDriver(false)
	warm := warmUp(res, drive, seed)

	// The runtime only honours a rate set before StartCPUProfile, which
	// then fails to apply its own 100 Hz and says so on stderr.
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	measure(res, drive, seed, warm, (wl.minReps+1)/2, budget)
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	m := hostShares(samples)
	// Peak RSS of the untraced repetitions: read before the recorder and
	// the micro-drivers' arrays raise it.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["host.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	traced := &run{seed: seed, lt: newLayerTrace()}
	drive(traced)
	res.absorb(traced, warm)
	for k, v := range traced.lt.metrics(traced) {
		m[k] = v
	}

	var windows []float64
	series := make(map[string][]float64) // per-repetition values reported as medians
	var gc float64
	for _, s := range res.Reps {
		windows = append(windows, s.WindowMs)
		gc += float64(s.GCCycles)
		for ph, name := range phaseNames {
			series["host.phase."+name+"_ms"] = append(series["host.phase."+name+"_ms"], s.PhaseMs[ph])
		}
		for k, v := range s.Host {
			series[k] = append(series[k], v)
		}
	}
	for k, xs := range series {
		m[k] = median(xs)
	}
	refs := res.RefMs
	m["host.wall_ms_med"] = median(windows)
	m["host.wall_ms_pct"], _ = pctTenBeyond(windows)
	m["host.reps"] = float64(len(windows))
	m["host.gc_cycles_per_op"] = gc / float64(len(windows))
	m["host.ref_ms"] = median(refs)
	m["host.ref_ratio"] = median(refs) / minOf(refs)
	if best := minOf(windows); best > 0 {
		m["host.trace_overhead_frac"] = float64(traced.phase[phRun])/1e6/best - 1
		if msgs := m["mpi.msgs"] + m["model.msgs"]; msgs > 0 {
			m["host.us_per_msg"] = best * 1e3 / msgs
		}
	}
	for k, v := range microMetrics() {
		m[k] = v
	}
	for k := range m {
		if !isLayerMetric(k) {
			return fmt.Errorf("metric %q is measured but not in the registry", k)
		}
	}
	for _, d := range layerDefs {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // a layer this workload never enters
		}
	}
	res.Layers = m
	return json.NewEncoder(w).Encode(res)
}
