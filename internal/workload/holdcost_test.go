package workload

import (
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/fault"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// Tests of the halo exchange as one neighbourhood collective per
// dimension (mpi.Group.NeighborAlltoallw) under the hold rule.

// runHalo runs the 3-D 2x2x2 stencil with a cubic box of b cells on the
// sweep's cluster and returns its result and recorder.
func runHalo(t *testing.T, b, iters int, tun *mpi.Tuning, plan *fault.Plan, traceIt bool) (JobResult, *sim.Recorder) {
	t.Helper()
	spec := cluster.Scale(2, 4, 4, 2)
	cfg := spec.Config()
	cfg.Tuning, cfg.Faults = tun, plan
	ranks := make([]int, spec.Size())
	for i := range ranks {
		ranks[i] = i
	}
	st := Stencil{Procs: []int{2, 2, 2}, Box: []int{b, b, b}, Iters: iters}
	res, rec, err := Run(cfg, []JobSpec{{Name: "halo", W: st, Seed: 1, Ranks: ranks}}, nil, Options{Trace: traceIt})
	if err != nil {
		t.Fatal(err)
	}
	return res[0], rec
}

// kernelSpans counts the kernels a traced run launched, by span name.
func kernelSpans(rec *sim.Recorder) map[string]int {
	n := map[string]int{}
	for _, tr := range rec.Tracks() {
		for i := range tr.Spans {
			if name := tr.Spans[i].Name; strings.HasPrefix(name, "kernel.") {
				n[name]++
			}
		}
	}
	return n
}

// TestHaloKernelBudget: per rank and iteration the halo sweep of a box
// of 16 launches one fused pack and one fused unpack per dimension and
// the stencil kernel — seven where two SendRecvLocal per dimension
// launched thirteen. Faces too large for a hold to pay (20 000 B) and
// faces past the eager limit launch per message, a dimension at a time.
func TestHaloKernelBudget(t *testing.T) {
	const ranks, iters = 8, 2
	for _, tc := range []struct {
		what     string
		box      int
		tun      *mpi.Tuning
		perRank  int // pack and unpack kernels per rank and iteration
		fusedPer int // "fused" pack and unpack spans per rank and iteration
	}{
		{"faces of up to 2 592 B", 16, nil, 6, 6},
		{"faces of 20 000 B", 48, nil, 12, 0},
		// A box-16 face is 16*16, 18*16 and 18*18 cells in dimension 0, 1, 2.
		{"every face past eager, the smallest by 8 B", 16, &mpi.Tuning{Eager: mpi.Eager(16*16*8 - 8)}, 12, 0},
		{"the largest face of eager + 8 B", 16, &mpi.Tuning{Eager: mpi.Eager(18*18*8 - 8)}, 8, 4},
	} {
		_, rec := runHalo(t, tc.box, iters, tc.tun, nil, true)
		k := kernelSpans(rec)
		total := 0
		for _, n := range k {
			total += n
		}
		if k["kernel.compute"] != ranks*iters || total-k["kernel.compute"] != ranks*iters*tc.perRank {
			t.Errorf("%s: kernels %v, want %d kernel.compute and %d pack and unpack kernels", tc.what, k, ranks*iters, ranks*iters*tc.perRank)
		}
		if n := CountSpans(rec, "pack", "fused") + CountSpans(rec, "unpack", "fused"); n != ranks*iters*tc.fusedPer {
			t.Errorf("%s: %d fused pack and unpack spans, want %d", tc.what, n, ranks*iters*tc.fusedPer)
		}
	}
}

// TestHoldByCost pins the stencil sweep the hold rule was sized on
// (ISSUE 23, twelve iterations, seed 1): faces up to 9 248 B are held,
// faces from 14 112 B are eager-sized and not held. No point may be
// slower than two SendRecvLocal per dimension were (parentUs), nor more
// than 3 % slower than the better of "never held" and "always held"
// there (bestUs). Held under the eager-limit rule the two largest
// points took 2 221.9 and 3 343.5 us.
func TestHoldByCost(t *testing.T) {
	for _, tc := range []struct {
		box              int
		parentUs, bestUs float64
	}{
		{16, 1372.4, 1035.4},
		{32, 1611.8, 1457.0},
		{48, 2066.6, 1818.9},
		{64, 2756.4, 2364.5},
	} {
		res, _ := runHalo(t, tc.box, 12, nil, nil, false)
		if got := res.ElapsedUs; got > tc.parentUs || got > 1.03*tc.bestUs {
			t.Errorf("box %d (faces of %d B): %.1f us, want at most %.1f (the parent) and %.1f (the better path + 3 %%)",
				tc.box, (tc.box+2)*(tc.box+2)*8, got, tc.parentUs, 1.03*tc.bestUs)
		}
	}
}

// TestStencilChaos: under the fault plans of mpi's TestHierChaosSweep
// and TestVCollChaosTransient the stencil job verifies every cell,
// ends on the clean run's digest and launches the clean run's kernels —
// a retry re-reads the stage or the bounce buffer, never the array —
// and no rank is left holding a buffer (Run checks).
func TestStencilChaos(t *testing.T) {
	clean, crec := runHalo(t, 16, 2, nil, nil, true)
	want := kernelSpans(crec)
	for _, plan := range []*fault.Plan{fault.NewPlan(3, 0.03), fault.NewPlan(19, 0.03), fault.NewPlan(5, 0.05), fault.NewPlan(23, 0.05)} {
		got, rec := runHalo(t, 16, 2, nil, plan, true)
		if rec.Counter("mpi.retry")+rec.Counter("gpu.launch.retry") == 0 {
			t.Fatalf("plan %+v: no retry recorded; the chaos run is vacuous", plan)
		}
		if got.Digest != clean.Digest {
			t.Errorf("plan %+v: digest %s, clean %s", plan, got.Digest, clean.Digest)
		}
		if got.ElapsedUs <= clean.ElapsedUs {
			t.Errorf("plan %+v: %.1f us under faults, %.1f clean", plan, got.ElapsedUs, clean.ElapsedUs)
		}
		k := kernelSpans(rec)
		for name, n := range want {
			if k[name] != n {
				t.Errorf("plan %+v: %d %s spans, clean %d", plan, k[name], name, n)
			}
		}
	}
}
