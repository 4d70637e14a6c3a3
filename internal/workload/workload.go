// Package workload is the application-traffic layer on top of
// cluster.Spec: seeded deterministic generators that drive the MPI
// stack with application-shaped communication instead of uniform
// synthetic sweeps. Three families — ML training (ring/tree allreduce
// over log-normal gradient buckets plus MoE-style sparse Alltoallv),
// stencil halo exchange (2D/3D domains whose faces are real subarray
// datatypes), and checkpoint bursts (collective writes through
// internal/mpiio contending with compute traffic) — plus a multi-job
// interference harness that co-schedules two jobs on one oversubscribed
// fat tree and reports per-job slowdown against running alone.
//
// Every workload is a generator, not a replayed trace: an instance
// derives all payload from (seed, rank, iteration), verifies every
// received byte against the same generator on the receiving side, and
// returns a per-rank result image folded into a job digest — so every
// benchmark point in BENCH_apps.json is payload-verified, and a
// co-scheduled run must produce byte-identical job digests to the same
// job running alone (contention may move time, never data).
package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// RunContext binds a workload to one concrete run: the world it
// executes in, the group of ranks forming its job, the job's payload
// seed, and the run-wide shared storage link.
type RunContext struct {
	World *mpi.World
	Group *mpi.Group
	Job   string
	Seed  uint64

	// FS is the shared file-system link of the run: every job
	// checkpoints through the same aggregate storage bandwidth, so
	// co-scheduled I/O bursts contend like they would on a real
	// parallel file system.
	FS *sim.Link
}

// Workload is one application traffic family. Implementations are pure
// descriptions (safe to reuse across runs); all per-run state lives in
// the Instance.
type Workload interface {
	Name() string

	// Instance binds the workload to a run. Called once per job before
	// World.Run; the returned Instance is shared by the job's ranks.
	Instance(rc RunContext) (Instance, error)
}

// Instance is a workload bound to one run.
type Instance interface {
	// Run executes the job body on member m and returns m's verified
	// result image (folded into the job digest), or an error if any
	// received byte disagrees with the generator.
	Run(m *mpi.Rank) ([]byte, error)
}

// JobSpec names one job of a run: a workload, its payload seed, and the
// global ranks it owns.
type JobSpec struct {
	Name  string
	W     Workload
	Seed  uint64
	Ranks []int
}

// JobResult is one job's outcome within a run.
type JobResult struct {
	Job       string  `json:"job"`
	Workload  string  `json:"workload"`
	Ranks     int     `json:"ranks"`
	ElapsedUs float64 `json:"elapsed_us"`
	Digest    string  `json:"digest"`
}

// Options tunes a run.
type Options struct {
	// Trace attaches a span recorder to the run's engine.
	Trace bool
}

// fsGBps is the bandwidth of the file system the jobs of a run share.
const fsGBps = 3

// Run builds a world from cfg and executes every job whose entry in
// active is true (active == nil runs all). Inactive jobs' ranks exist
// in the world — same fabric, same placements, zero traffic — which is
// exactly the "running alone" baseline of the interference studies:
// the measured job sees the identical machine minus the contention.
//
// Groups are created for every job, active or not, so a job's
// collective tag block never depends on which other jobs run: the same
// job produces a byte-identical schedule alone and co-scheduled.
// Results are returned for active jobs in job order.
func Run(cfg mpi.Config, jobs []JobSpec, active []bool, opt Options) ([]JobResult, *sim.Recorder, error) {
	if active == nil {
		active = make([]bool, len(jobs))
		for j := range active {
			active[j] = true
		}
	}
	if len(active) != len(jobs) {
		return nil, nil, fmt.Errorf("workload: %d active flags for %d jobs", len(active), len(jobs))
	}
	jobOf := make([]int, len(cfg.Ranks))
	for i := range jobOf {
		jobOf[i] = -1
	}
	for j, job := range jobs {
		for _, r := range job.Ranks {
			if r < 0 || r >= len(cfg.Ranks) {
				return nil, nil, fmt.Errorf("workload: job %q rank %d out of range", job.Name, r)
			}
			if jobOf[r] != -1 {
				return nil, nil, fmt.Errorf("workload: rank %d claimed by two jobs", r)
			}
			jobOf[r] = j
		}
	}

	w := mpi.NewWorld(cfg)
	defer w.Close()
	var rec *sim.Recorder
	if opt.Trace {
		rec = sim.NewRecorder(w.Engine())
	}
	fs := w.Engine().NewLink("fs:shared", fsGBps, 100*sim.Microsecond)

	groups := make([]*mpi.Group, len(jobs))
	insts := make([]Instance, len(jobs))
	for j, job := range jobs {
		groups[j] = w.NewGroup(job.Ranks)
		if !active[j] {
			continue
		}
		inst, err := job.W.Instance(RunContext{
			World: w, Group: groups[j], Job: job.Name, Seed: job.Seed, FS: fs,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("workload: job %q: %w", job.Name, err)
		}
		insts[j] = inst
	}

	size := len(cfg.Ranks)
	starts := make([]sim.Time, size)
	ends := make([]sim.Time, size)
	imgs := make([][]byte, size)
	errs := make([]error, size)
	w.Run(func(m *mpi.Rank) {
		j := jobOf[m.Rank()]
		if j < 0 || !active[j] {
			return
		}
		g := groups[j]
		g.Barrier(m) // align the job's start line
		starts[m.Rank()] = m.Now()
		img, err := insts[j].Run(m)
		ends[m.Rank()] = m.Now()
		imgs[m.Rank()] = img
		errs[m.Rank()] = err
	})

	// Nothing a job borrowed from the library may be outstanding once
	// every process has returned.
	if err := w.Quiescent(); err != nil {
		return nil, nil, fmt.Errorf("workload: %w", err)
	}

	var out []JobResult
	for j, job := range jobs {
		if !active[j] {
			continue
		}
		h := sha256.New()
		var first, last sim.Time
		for i, r := range job.Ranks {
			if errs[r] != nil {
				return nil, nil, fmt.Errorf("workload: job %q rank %d: %w", job.Name, r, errs[r])
			}
			h.Write(imgs[r])
			if i == 0 || starts[r] < first {
				first = starts[r]
			}
			if ends[r] > last {
				last = ends[r]
			}
		}
		out = append(out, JobResult{
			Job:       job.Name,
			Workload:  job.W.Name(),
			Ranks:     len(job.Ranks),
			ElapsedUs: sim.Time(last - first).Micros(),
			Digest:    hex.EncodeToString(h.Sum(nil)),
		})
	}
	return out, rec, nil
}

// GroupOf maps recorder track names to process-group labels for
// trace.Run.GroupOf: rank tracks land under their job's name,
// everything else (links, switches, GPU streams) under "fabric".
func GroupOf(jobs []JobSpec) func(track string) string {
	byRank := map[int]string{}
	for _, job := range jobs {
		for _, r := range job.Ranks {
			byRank[r] = "job:" + job.Name
		}
	}
	return func(track string) string {
		if !strings.HasPrefix(track, "rank") {
			return "fabric"
		}
		n := 0
		ok := false
		for _, c := range track[len("rank"):] {
			if c < '0' || c > '9' {
				break
			}
			n = n*10 + int(c-'0')
			ok = true
		}
		if !ok {
			return "fabric"
		}
		if label, found := byRank[n]; found {
			return label
		}
		return "idle"
	}
}

// CountSpans counts spans with the given name whose detail contains
// substr, across every track of the recorder — how the benchmarks
// assert that e.g. the halo path really moved subarray datatypes.
func CountSpans(rec *sim.Recorder, name, substr string) int {
	n := 0
	for _, t := range rec.Tracks() {
		for i := range t.Spans {
			sp := &t.Spans[i]
			if sp.Name == name && strings.Contains(sp.Detail, substr) {
				n++
			}
		}
	}
	return n
}

// mix folds the given values into one seeded word: every word of
// application data is mix(seed, coordinates...), so both sides of any
// exchange can compute the expected bytes independently.
func mix(seed uint64, vs ...uint64) uint64 {
	x := mem.Mix64(seed)
	for _, v := range vs {
		x = mem.Mix64(x ^ v)
	}
	return x
}

// putWord writes word w at byte offset off.
func putWord(raw []byte, off int, w uint64) { binary.LittleEndian.PutUint64(raw[off:], w) }

// getWord reads the word at byte offset off.
func getWord(raw []byte, off int) uint64 { return binary.LittleEndian.Uint64(raw[off:]) }
