package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// vchaosConfig is a hierarchical world with the rendezvous pipeline
// forced through small fragments, so injected faults land mid-protocol
// inside v-variant staging and nonblocking schedules.
func vchaosConfig(plan *fault.Plan) Config {
	cfg := blockedConfig(2, 2, false)
	cfg.Tuning = chaosTuning()
	cfg.Faults = plan
	return cfg
}

// runVChaos keeps an Iallgatherv in flight on every rank across a
// blocking Alltoallv and Barrier, waits on it, and returns each rank's
// packed results (allgatherv blocks then alltoallv blocks).
func runVChaos(t *testing.T, cfg Config) ([][]byte, *World) {
	t.Helper()
	dt := shapes.SubMatrix(16, 8, 12)
	size := len(cfg.Ranks)
	agc := make([]int, size)
	for r := range agc {
		agc[r] = (r + 1) % 3 // includes a zero block
	}
	agd, agspan := packedDispls(dt, agc)
	sc := irregularCounts(size)
	rc := transposeCounts(sc)
	w := NewWorld(cfg)
	imgs := make([][]byte, size)
	outstanding := make([]int, size)
	w.Run(func(m *Rank) {
		me := m.Rank()
		gbuf := m.Malloc(agspan)
		if agc[me] > 0 {
			mem.FillPattern(vslot(gbuf, dt, agc[me], agd[me]), uint64(8000+me))
		}
		sd, sspan := packedDispls(dt, sc[me])
		rd, rspan := packedDispls(dt, rc[me])
		vs, vr := m.Malloc(sspan), m.Malloc(rspan)
		for j := 0; j < size; j++ {
			if sc[me][j] > 0 {
				mem.FillPattern(vslot(vs, dt, sc[me][j], sd[j]), uint64(8100+me*size+j))
			}
		}
		req := m.Iallgatherv(gbuf, agc, agd, dt)
		m.Alltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt)
		m.Barrier()
		req.Wait(m.Proc())
		outstanding[me] = m.collOut
		for r := 0; r < size; r++ {
			if agc[r] > 0 {
				imgs[me] = append(imgs[me], cpuPack(dt, agc[r], vslot(gbuf, dt, agc[r], agd[r]).Bytes())...)
			}
			if rc[me][r] > 0 {
				imgs[me] = append(imgs[me], cpuPack(dt, rc[me][r], vslot(vr, dt, rc[me][r], rd[r]).Bytes())...)
			}
		}
	})
	for r := 0; r < size; r++ {
		if outstanding[r] != 0 {
			t.Fatalf("rank %d: %d collectives outstanding after Wait", r, outstanding[r])
		}
	}
	return imgs, w
}

// TestVCollChaosTransient injects transient faults into the concurrent
// v-variant sweep and requires full recovery: results byte-identical to
// the clean run, at least one fault actually fired, and every staging
// pool quiescent after Wait.
func TestVCollChaosTransient(t *testing.T) {
	clean, cw := runVChaos(t, vchaosConfig(nil))
	if n := cw.Faults().Total(); n != 0 {
		t.Fatalf("clean run injected %d faults", n)
	}
	cw.Close()
	for _, seed := range []uint64{5, 23} {
		plan := fault.NewPlan(seed, 0.05)
		got, w := runVChaos(t, vchaosConfig(plan))
		if w.Faults().Total() == 0 {
			t.Fatalf("seed %d: no faults injected; chaos run is vacuous", seed)
		}
		for r := range got {
			if !bytes.Equal(got[r], clean[r]) {
				t.Fatalf("seed %d: rank %d result differs from clean run", seed, r)
			}
		}
		checkQuiescent(t, w, fmt.Sprintf("vcoll chaos seed %d", seed))
		w.Close()
	}
}

// TestVCollChaosPersistentIPC makes every CUDA IPC open fail
// permanently: the intra-node tier of the v-variant schedules must fall
// back to staged copies, yet the concurrent v-variant sweep still
// completes byte-identically and leak-free.
func TestVCollChaosPersistentIPC(t *testing.T) {
	clean, cw := runVChaos(t, vchaosConfig(nil))
	cw.Close()
	plan := fault.NewPlan(29, 0)
	plan.Persistent[fault.IPCOpen] = true
	got, w := runVChaos(t, vchaosConfig(plan))
	for r := range got {
		if !bytes.Equal(got[r], clean[r]) {
			t.Fatalf("rank %d result differs from clean run under persistent IPC failure", r)
		}
	}
	checkQuiescent(t, w, "vcoll persistent-ipc")
	w.Close()
}
