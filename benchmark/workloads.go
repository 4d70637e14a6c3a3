package main

import (
	"fmt"
	"hash/crc32"
	"time"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// workloadDef is one named benchmark workload. Names and shapes are
// frozen: later issues cite them, and the pipeline compares commits on
// them. BENCHMARK.json and README.md say why each exists.
type workloadDef struct {
	name string

	// minReps is the floor of timed repetitions per round, whatever
	// the time budget says (three rounds make a run).
	minReps int

	// newDriver builds the workload's datatypes and shapes once (a
	// real application commits its types once too) and returns the
	// body of one repetition. toy selects the test-sized shapes of
	// bench_test.go.
	newDriver func(toy bool) func(r *run)
}

var workloads = []workloadDef{
	{
		name:      "p2p_bw",
		minReps:   6,
		newDriver: func(toy bool) func(*run) { return pingPongDriver(p2pBWPoints(toy), p2pContig(toy)) },
	},
	{
		name:      "p2p_lat",
		minReps:   6,
		newDriver: func(toy bool) func(*run) { return pingPongDriver(p2pLatPoints(toy), nil) },
	},
	{
		name:      "coll_real",
		minReps:   6,
		newDriver: collRealDriver,
	},
	{
		name:      "coll_modelled",
		minReps:   2,
		newDriver: collModelledDriver,
	},
	{
		name:      "app_stencil",
		minReps:   6,
		newDriver: stencilDriver,
	},
	{
		name:      "overlap_icoll",
		minReps:   6,
		newDriver: overlapDriver,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phase names one benchmark-side host-time span of a repetition.
type phase int

const (
	phBuild  phase = iota // mpi.NewWorld
	phFill                // payload generation (benchmark-owned)
	phRun                 // the timed window
	phVerify              // oracle comparison (benchmark-owned)
	phClose               // World.Close
	numPhases
)

var phaseNames = [numPhases]string{"build", "fill", "run", "verify", "close"}

// run is the state of one repetition: inputs from the harness, and
// what the driver measured and verified.
type run struct {
	seed   uint64
	tamper bool        // negative control: corrupt one byte and one digest before verifying
	lt     *layerTrace // non-nil in the traced pass only

	virtualUs float64 // virtual microseconds, summed over the workload's points
	phase     [numPhases]time.Duration
	attempted int
	failed    int
	errs      []string
	digest    uint64 // over every verified payload image, in order

	pointUs map[string]float64 // virtual time per named point

	// Per-arm host spans the layer pass reports.
	mvapichWindow time.Duration
	model         modelStats
}

// armSpans returns the host cost of the arms the layer pass reports on
// their own (empty when the workload has none).
func (r *run) armSpans() map[string]float64 {
	m := make(map[string]float64)
	if r.mvapichWindow > 0 {
		m["baseline.mvapich_pingpong_ms"] = float64(r.mvapichWindow) / 1e6
	}
	if a := r.model.hier; a.window > 0 {
		m["model.hier_events_per_s"] = float64(a.events) / a.window.Seconds()
	}
	if a := r.model.flat; a.window > 0 {
		m["model.flat_events_per_s"] = float64(a.events) / a.window.Seconds()
	}
	return m
}

// owned runs fn, which is benchmark-owned work (payload generation or
// verification), and charges its host time to ph. The engine runs one
// goroutine at a time and fn never yields, so the sum is exact and
// runWorld can subtract it from the window. The CPU-profile bucketing
// rule sends every sample below this frame to "bench"; noinline keeps
// the frame in the stacks.
//
//go:noinline
func (r *run) owned(ph phase, fn func()) {
	t0 := time.Now()
	fn()
	r.phase[ph] += time.Since(t0)
}

// newWorld builds a world and, in the traced pass, attaches a recorder.
func (r *run) newWorld(cfg mpi.Config) (*mpi.World, *sim.Recorder) {
	t0 := time.Now()
	w := mpi.NewWorld(cfg)
	r.phase[phBuild] += time.Since(t0)
	if r.lt == nil {
		return w, nil
	}
	return w, sim.NewRecorder(w.Engine())
}

// runWorld is the timed window: the host time of World.Run less what
// body spent in owned. It returns the window of this call.
func (r *run) runWorld(w *mpi.World, body func(m *mpi.Rank)) time.Duration {
	own := r.phase[phFill] + r.phase[phVerify]
	t0 := time.Now()
	w.Run(body)
	d := time.Since(t0) - (r.phase[phFill] + r.phase[phVerify] - own)
	r.phase[phRun] += d
	return d
}

func (r *run) closeWorld(w *mpi.World, rec *sim.Recorder) {
	if rec != nil {
		r.lt.add(rec)
	}
	t0 := time.Now()
	w.Close()
	r.phase[phClose] += time.Since(t0)
}

// check accounts one verified operation. Hot paths test ok themselves
// and call fail, so that a passing check boxes no arguments.
func (r *run) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records one failed operation; the caller has counted it as
// attempted.
func (r *run) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.errs) < 4 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// point records the virtual time of one named point and adds it to
// virtual_us.
func (r *run) point(name string, us float64) {
	r.virtualUs += us
	r.note(name, us)
}

// note records a named virtual time without adding it to virtual_us.
func (r *run) note(name string, us float64) {
	if r.pointUs == nil {
		r.pointUs = make(map[string]float64)
	}
	r.pointUs[name] = us
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fold mixes a verified payload image into the run's digest.
func (r *run) fold(img []byte) { r.foldWord(uint64(crc32.Checksum(img, castagnoli))) }

// foldWord mixes the digest of a verified payload into the run's.
func (r *run) foldWord(x uint64) { r.digest = (r.digest ^ x) * 1099511628211 }

// seedFor derives the payload seed of stream k of a repetition.
func (r *run) seedFor(k int) uint64 { return r.seed*1000003 + uint64(k) }

// layoutSpan is the memory footprint of count elements of dt from the
// datatype origin.
func layoutSpan(dt *datatype.Datatype, count int) int64 {
	if count == 0 {
		return 0
	}
	return int64(count-1)*dt.Extent() + dt.TrueLB() + dt.TrueExtent()
}

// cpuPack packs (dt, count) out of src with the reference CPU
// converter: the layout-independent ground truth of every comparison.
func cpuPack(dt *datatype.Datatype, count int, src []byte) []byte {
	c := datatype.NewConverter(dt, count)
	out := make([]byte, c.Total())
	c.Pack(out, src)
	return out
}

// synth generates n bytes of the synthetic stream mem.FillSynthetic
// writes for seed, without touching a simulated buffer.
func synth(seed uint64, n int64) []byte {
	b := make([]byte, n)
	mem.SyntheticAt(seed, 0, b)
	return b
}
