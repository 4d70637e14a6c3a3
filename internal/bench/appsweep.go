package bench

import (
	"fmt"
	"strings"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/workload"
)

// The application-workload sweep behind BENCH_apps.json: every family
// of internal/workload on fat-tree clusters at two fabric
// oversubscription levels, plus the two-job interference study under
// every placement policy. All payloads are generator-verified inside
// the workloads themselves — a point only appears in the report if
// every received byte checked out.

// AppPoint is one single-job application measurement.
type AppPoint struct {
	Family        string  `json:"family"`
	Ranks         int     `json:"ranks"`
	Nodes         int     `json:"nodes"`
	RanksPerNode  int     `json:"ranks_per_node"`
	Oversub       int     `json:"oversub"`
	ElapsedUs     float64 `json:"elapsed_us"`
	Digest        string  `json:"digest"`
	SubarraySpans int     `json:"subarray_spans,omitempty"`
}

// AppSweep configures the application sweep.
type AppSweep struct {
	RanksPerNode int
	RankCounts   []int
	Oversubs     []int
	Seed         uint64

	// Interference-study shape: two jobs (ml-ring vs stencil2d) of
	// StudyRanksPerJob ranks each on StudyNodes nodes, swept over
	// Policies. The stencil job runs StudyHaloIters sweeps of a
	// StudyHaloBox² local box so the two jobs' traffic overlaps in
	// virtual time — a job that finishes inside the other's first
	// compute kernel would measure nothing.
	StudyNodes       int
	StudyRPN         int
	StudyOversub     int
	StudyRanksPerJob int
	StudyHaloBox     int
	StudyHaloIters   int
	Policies         []cluster.Policy
}

// DefaultAppSweep is the committed-report shape: four rank counts (the
// 64-rank points span two leaves, where fabric oversubscription starts
// to matter), taper (1:1) and 4:1 oversubscribed fabrics, and a two-leaf
// interference study — 32-rank jobs on 16 nodes, so packed placement
// isolates each job on its own leaf (the crossbar is non-blocking)
// while striped and spread jobs share uplinks and node wires.
func DefaultAppSweep() AppSweep {
	return AppSweep{
		RanksPerNode: 4,
		RankCounts:   []int{8, 16, 32, 64},
		Oversubs:     []int{1, 4},
		Seed:         0xA5,
		StudyNodes:   16, StudyRPN: 4, StudyOversub: 4, StudyRanksPerJob: 32,
		StudyHaloBox: 64, StudyHaloIters: 120,
		Policies: cluster.Policies,
	}
}

// QuickAppSweep is the CI smoke shape: one rank count, one fabric, all
// policies on a small study point — small enough to run twice for the
// determinism check.
func QuickAppSweep() AppSweep {
	return AppSweep{
		RanksPerNode: 4,
		RankCounts:   []int{8},
		Oversubs:     []int{4},
		Seed:         0xA5,
		StudyNodes:   4, StudyRPN: 4, StudyOversub: 4, StudyRanksPerJob: 8,
		StudyHaloBox: 16, StudyHaloIters: 8,
		Policies: cluster.Policies,
	}
}

// appFamilies lists the swept families in report order.
var appFamilies = []string{"ml-ring", "ml-tree", "stencil2d", "stencil3d", "checkpoint"}

// appGrid factors a power-of-two rank count into nd balanced dims,
// each >= 2.
func appGrid(ranks, nd int) ([]int, error) {
	log := 0
	for v := ranks; v > 1; v >>= 1 {
		if v&1 != 0 {
			return nil, fmt.Errorf("bench: %d ranks not a power of two", ranks)
		}
		log++
	}
	if log < nd {
		return nil, fmt.Errorf("bench: %d ranks cannot fill a %dD grid", ranks, nd)
	}
	dims := make([]int, nd)
	for d := range dims {
		n := log / nd
		if d < log%nd {
			n++
		}
		dims[d] = 1 << n
	}
	return dims, nil
}

// AppWorkload builds the named family sized for a job of `ranks` ranks.
// The ML config is deliberately mid-sized (a dozen log-normal layers,
// 128 KB fusion buffers, a sparse MoE phase) so the sweep finishes in
// CI time while still exercising bucketed allreduce and skewed
// alltoallv.
func AppWorkload(family string, ranks int) (workload.Workload, error) {
	ml := workload.MLTrain{Layers: 12, MeanKB: 32, Sigma: 1.2, FusionKB: 128, Iters: 2, MoETokens: 16, Hidden: 32}
	switch family {
	case "ml-ring":
		ml.Alg = mpi.AllreduceRing
		return ml, nil
	case "ml-tree":
		ml.Alg = mpi.AllreduceTree
		return ml, nil
	case "stencil2d", "stencil3d":
		nd := 2
		if family == "stencil3d" {
			nd = 3
		}
		grid, err := appGrid(ranks, nd)
		if err != nil {
			return nil, err
		}
		return workload.Stencil{Procs: grid, Iters: 2}, nil
	case "checkpoint":
		return workload.Checkpoint{StateKB: 128, ChunkKB: 4, Iters: 4, Interval: 2, HaloKB: 16}, nil
	}
	return nil, fmt.Errorf("bench: unknown app family %q", family)
}

// RunApps measures every family at every (ranks, oversub) point as a
// single job owning the whole cluster. Stencil points run traced, and
// the count of halo spans that moved subarray datatypes is recorded in
// the point — zero subarray spans on a stencil point is an error, not
// a report entry.
func RunApps(sw AppSweep) ([]AppPoint, error) {
	var pts []AppPoint
	for _, ranks := range sw.RankCounts {
		if ranks%sw.RanksPerNode != 0 {
			return nil, fmt.Errorf("bench: %d ranks not divisible by %d per node", ranks, sw.RanksPerNode)
		}
		nodes := ranks / sw.RanksPerNode
		for _, ov := range sw.Oversubs {
			for _, fam := range appFamilies {
				w, err := AppWorkload(fam, ranks)
				if err != nil {
					return nil, err
				}
				spec := cluster.Scale(nodes, sw.RanksPerNode, sw.RanksPerNode, ov)
				all := make([]int, ranks)
				for i := range all {
					all[i] = i
				}
				jobs := []workload.JobSpec{{Name: fam, W: w, Seed: sw.Seed, Ranks: all}}
				traced := strings.HasPrefix(fam, "stencil")
				res, rec, err := workload.Run(spec.Config(), jobs, nil, workload.Options{Trace: traced})
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%d ranks/oversub %d: %w", fam, ranks, ov, err)
				}
				pt := AppPoint{
					Family: fam, Ranks: ranks, Nodes: nodes,
					RanksPerNode: sw.RanksPerNode, Oversub: ov,
					ElapsedUs: res[0].ElapsedUs, Digest: res[0].Digest,
				}
				if traced {
					pt.SubarraySpans = workload.CountSpans(rec, "app.halo.face", "subarray(")
					if pt.SubarraySpans == 0 {
						return nil, fmt.Errorf("bench: %s/%d ranks: no subarray halo spans recorded", fam, ranks)
					}
				}
				pts = append(pts, pt)
			}
		}
	}
	return pts, nil
}

// RunAppStudies runs the two-job interference point (data-parallel
// training vs stencil halo) under every policy of the sweep.
func RunAppStudies(sw AppSweep) ([]workload.StudyResult, error) {
	rpj := sw.StudyRanksPerJob
	ml, err := AppWorkload("ml-ring", rpj)
	if err != nil {
		return nil, err
	}
	grid, err := appGrid(rpj, 2)
	if err != nil {
		return nil, err
	}
	st := workload.Stencil{
		Procs: grid,
		Box:   []int{sw.StudyHaloBox, sw.StudyHaloBox},
		Iters: sw.StudyHaloIters,
	}
	var out []workload.StudyResult
	for _, policy := range sw.Policies {
		res, _, _, err := workload.RunStudy(workload.Study{
			Nodes: sw.StudyNodes, GPUsPerNode: sw.StudyRPN, RanksPerNode: sw.StudyRPN,
			Oversub: sw.StudyOversub, RanksPerJob: rpj, Policy: policy,
			Jobs: []workload.StudyJob{
				{Name: "train", W: ml, Seed: sw.Seed + 1},
				{Name: "halo", W: st, Seed: sw.Seed + 2},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("bench: interference %s: %w", policy, err)
		}
		for _, j := range res.Jobs {
			if !j.DigestMatch {
				return nil, fmt.Errorf("bench: interference %s: job %q digest changed under contention", policy, j.Job)
			}
		}
		out = append(out, res)
	}
	return out, nil
}
