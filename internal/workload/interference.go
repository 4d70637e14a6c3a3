package workload

import (
	"fmt"

	"gpuddt/internal/cluster"
	"gpuddt/internal/sim"
)

// StudyJob names one job of an interference study.
type StudyJob struct {
	Name string
	W    Workload
	Seed uint64
}

// Study describes a multi-job interference experiment: the jobs are
// co-scheduled on one fat-tree cluster under a placement policy, run
// together, and then each runs alone on the *same* machine (identical
// placements, the other job's ranks idle) — so per-job slowdown is pure
// fabric/storage contention, and each job's payload digest must be
// byte-identical in both runs.
type Study struct {
	Nodes        int
	GPUsPerNode  int
	RanksPerNode int
	Oversub      int
	RanksPerJob  int
	Policy       cluster.Policy
	Jobs         []StudyJob
	Trace        bool // trace the together-run
}

// JobOutcome is one job's measurements within a study.
type JobOutcome struct {
	Job         string  `json:"job"`
	Workload    string  `json:"workload"`
	Ranks       int     `json:"ranks"`
	AloneUs     float64 `json:"alone_us"`
	TogetherUs  float64 `json:"together_us"`
	Slowdown    float64 `json:"slowdown"`
	Digest      string  `json:"digest"`
	DigestMatch bool    `json:"digest_match"` // alone digest == together digest
}

// StudyResult is one interference point of BENCH_apps.json.
type StudyResult struct {
	Policy       string       `json:"policy"`
	Nodes        int          `json:"nodes"`
	RanksPerNode int          `json:"ranks_per_node"`
	Oversub      int          `json:"oversub"`
	Jobs         []JobOutcome `json:"jobs"`
}

// RunStudy executes one interference point: co-schedule, run together,
// run each job alone, compare. The returned recorder (non-nil only with
// st.Trace) holds the together-run timeline; trace.WriteChrome with a
// trace.Run whose GroupOf maps rank tracks to their job exports it
// grouped per job.
func RunStudy(st Study) (StudyResult, *sim.Recorder, []JobSpec, error) {
	spec := cluster.Scale(st.Nodes, st.GPUsPerNode, st.RanksPerNode, st.Oversub)
	place, jobRanks, err := cluster.CoSchedule(spec, len(st.Jobs), st.RanksPerJob, st.Policy)
	if err != nil {
		return StudyResult{}, nil, nil, err
	}
	cfg := spec.Config()
	cfg.Ranks = place

	jobs := make([]JobSpec, len(st.Jobs))
	for j, sj := range st.Jobs {
		jobs[j] = JobSpec{Name: sj.Name, W: sj.W, Seed: sj.Seed, Ranks: jobRanks[j]}
	}

	together, rec, err := Run(cfg, jobs, nil, Options{Trace: st.Trace})
	if err != nil {
		return StudyResult{}, nil, nil, fmt.Errorf("together: %w", err)
	}

	res := StudyResult{
		Policy:       string(st.Policy),
		Nodes:        st.Nodes,
		RanksPerNode: st.RanksPerNode,
		Oversub:      st.Oversub,
		Jobs:         make([]JobOutcome, len(jobs)),
	}
	for j := range jobs {
		active := make([]bool, len(jobs))
		active[j] = true
		alone, _, err := Run(cfg, jobs, active, Options{})
		if err != nil {
			return StudyResult{}, nil, nil, fmt.Errorf("alone %q: %w", jobs[j].Name, err)
		}
		a, t := alone[0], together[j]
		slow := 0.0
		if a.ElapsedUs > 0 {
			slow = t.ElapsedUs / a.ElapsedUs
		}
		res.Jobs[j] = JobOutcome{
			Job:         t.Job,
			Workload:    t.Workload,
			Ranks:       t.Ranks,
			AloneUs:     a.ElapsedUs,
			TogetherUs:  t.ElapsedUs,
			Slowdown:    slow,
			Digest:      t.Digest,
			DigestMatch: a.Digest == t.Digest,
		}
	}
	return res, rec, jobs, nil
}
