package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/trace"
)

// testJob builds a single-job run over the whole of a small fat-tree
// cluster and returns its result.
func runSingle(t *testing.T, w Workload, ranks, rpn int, traceIt bool) (JobResult, []JobSpec, *traceRec) {
	t.Helper()
	spec := cluster.Scale(ranks/rpn, rpn, rpn, 2)
	cfg := spec.Config()
	all := make([]int, ranks)
	for i := range all {
		all[i] = i
	}
	jobs := []JobSpec{{Name: "solo", W: w, Seed: 7, Ranks: all}}
	res, rec, err := Run(cfg, jobs, nil, Options{Trace: traceIt})
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	if len(res) != 1 || res[0].Digest == "" || res[0].ElapsedUs <= 0 {
		t.Fatalf("%s: bad result %+v", w.Name(), res)
	}
	return res[0], jobs, &traceRec{rec}
}

type traceRec struct{ rec interface{} }

// smallML returns a quick ML training config.
func smallML(alg mpi.AllreduceAlg) MLTrain {
	return MLTrain{Layers: 6, MeanKB: 8, Sigma: 1.0, FusionKB: 32, Iters: 2, Alg: alg, MoETokens: 8, Hidden: 16}
}

func TestMLTrainVerifies(t *testing.T) {
	for _, alg := range []mpi.AllreduceAlg{mpi.AllreduceRing, mpi.AllreduceTree} {
		r, _, _ := runSingle(t, smallML(alg), 8, 2, false)
		if r.Workload != "ml-"+alg.String() {
			t.Errorf("workload name = %q", r.Workload)
		}
	}
}

func TestCheckpointVerifies(t *testing.T) {
	runSingle(t, Checkpoint{StateKB: 32, ChunkKB: 4, Iters: 4, Interval: 2, HaloKB: 8}, 8, 2, false)
}

func TestStencil3DVerifies(t *testing.T) {
	runSingle(t, Stencil{Procs: []int{2, 2, 2}, Box: []int{6, 6, 6}, Iters: 2}, 8, 2, false)
}

// TestStencilGeneratorIsMixFold: the per-row / per-cell / per-step split
// of the stencil generator is the plain fold mix(seed, g..., it), in 2D
// and 3D.
func TestStencilGeneratorIsMixFold(t *testing.T) {
	const seed = 0xfeed
	for _, g := range [][]uint64{{0, 0}, {3, 17}, {63, 0, 5}, {1, 2, 3}, {0, 0, 1 << 20}} {
		for it := 0; it < 3; it++ {
			n := len(g) - 1
			want := mix(seed, append(append([]uint64(nil), g...), uint64(it))...)
			if got := cellWord(cellFold(mix(seed, g[:n]...), g[n]), it); got != want {
				t.Errorf("cell %v step %d: %x, want mix = %x", g, it, got, want)
			}
		}
	}
}

// TestStencilHaloSubarraySpans runs the 2D stencil traced and asserts
// the halo path moved real subarray datatypes end-to-end: every halo
// exchange span carries a subarray datatype name, and the grouped
// Chrome export renders the job as a labeled process group.
func TestStencilHaloSubarraySpans(t *testing.T) {
	spec := cluster.Scale(2, 2, 2, 2)
	cfg := spec.Config()
	jobs := []JobSpec{{
		Name: "halo", W: Stencil{Procs: []int{2, 2}, Box: []int{8, 8}, Iters: 2},
		Seed: 11, Ranks: []int{0, 1, 2, 3},
	}}
	res, rec, err := Run(cfg, jobs, nil, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no recorder attached")
	}
	// 2 dims x 2 faces x 2 iters per rank x 4 ranks = 32 spans.
	if n := CountSpans(rec, "app.halo.face", "subarray("); n != 32 {
		t.Errorf("subarray halo spans = %d, want 32", n)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, trace.Run{Rec: rec, GroupOf: GroupOf(jobs)}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range out.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Args["name"] == "job:halo" {
			found = true
		}
	}
	if !found {
		t.Error("grouped export missing job:halo process group")
	}
	_ = res
}

// studyPoint is the interference point the determinism and smoke tests
// share: ML vs stencil on an oversubscribed 4-node fat tree.
func studyPoint(policy cluster.Policy) Study {
	return Study{
		Nodes: 4, GPUsPerNode: 2, RanksPerNode: 2, Oversub: 4,
		RanksPerJob: 4, Policy: policy,
		Jobs: []StudyJob{
			{Name: "ml", W: smallML(mpi.AllreduceRing), Seed: 21},
			{Name: "halo", W: Stencil{Procs: []int{2, 2}, Box: []int{8, 8}, Iters: 2}, Seed: 22},
		},
	}
}

// TestInterferenceSmoke runs one study point under every policy: jobs
// must verify, digests must match between alone and together runs, and
// contention must never speed a job up.
func TestInterferenceSmoke(t *testing.T) {
	for _, policy := range cluster.Policies {
		res, _, _, err := RunStudy(studyPoint(policy))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for _, j := range res.Jobs {
			if !j.DigestMatch {
				t.Errorf("%s/%s: digest changed between alone and together runs", policy, j.Job)
			}
			if j.Slowdown < 0.999 {
				t.Errorf("%s/%s: slowdown %.3f < 1 — contention made it faster?", policy, j.Job, j.Slowdown)
			}
			if j.AloneUs <= 0 || j.TogetherUs <= 0 {
				t.Errorf("%s/%s: bad times %+v", policy, j.Job, j)
			}
		}
	}
}

// TestInterferenceDeterminism re-runs one interference point and
// requires the full JSON-serialized result — times, digests, slowdowns
// — to be byte-identical.
func TestInterferenceDeterminism(t *testing.T) {
	run := func() []byte {
		res, _, _, err := RunStudy(studyPoint(cluster.PolicySpread))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("interference point not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestRunValidation covers the runner's job-layout errors.
func TestRunValidation(t *testing.T) {
	cfg := cluster.Scale(2, 2, 2, 1).Config()
	ml := smallML(mpi.AllreduceRing)
	cases := []struct {
		name string
		jobs []JobSpec
	}{
		{"rank out of range", []JobSpec{{Name: "a", W: ml, Ranks: []int{0, 99}}}},
		{"overlapping jobs", []JobSpec{
			{Name: "a", W: ml, Ranks: []int{0, 1}},
			{Name: "b", W: ml, Ranks: []int{1, 2}},
		}},
	}
	for _, c := range cases {
		if _, _, err := Run(cfg, c.jobs, nil, Options{}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
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
