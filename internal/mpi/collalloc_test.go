package mpi_test

import (
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

// TestCollectiveAllocs pins the heap objects a repeated Allgather,
// Allgatherv and Alltoall cost on a warm blocked 64-rank world
// (coll_real's shape and block), every rank and every layer counted,
// hierarchical and CollFlat, averaged over 20 calls after 20 warm ones.
// A message's records come from the world's free lists, a call's index
// arrays and block list from a scratch record of its rank's arena, and
// hierAlltoall's two views are built once per world for each block size
// (TestHierAlltoallViewsBuiltOnce), so all six cost 0. Before that,
// the hierarchical Allgather, Allgatherv and Alltoall made 444, 308 and
// 128 objects per call: Allgather's counts and displacements,
// hierAllgatherv's four index arrays and the unpack's block list, and
// the leaders' views. The flat Alltoall's ranks drift up to a call
// apart, so the unexpected arrivals, staging buffers and waiting
// processes they hold at once kept finding new peaks long after warm-up,
// each one slice grown (1 object per call here, 25 over the 100 calls
// after 150); now a rank's unexpected list has room for one arrival from
// every rank from build on, a staging free list that first outgrows its
// array makes room for one buffer per rank, and a resource queues its
// waiters through the processes themselves (sim.procQueue).
func TestCollectiveAllocs(t *testing.T) {
	block := shapes.SubMatrix(16, 8, 12) // 1 KiB packed: eager, held
	for _, flat := range []bool{false, true} {
		for _, coll := range []string{"Allgather", "Allgatherv", "Alltoall"} {
			cfg := cluster.Scale(16, 4, 4, 2).Config()
			if flat {
				cfg.Tuning = &mpi.Tuning{Collectives: mpi.CollFlat}
			}
			w := mpi.NewWorld(cfg)
			if w.TopologyAware() == flat {
				t.Fatalf("flat=%v: world is topology-aware: %v", flat, w.TopologyAware())
			}
			const warm, runs = 20, 20
			var got float64
			w.Run(func(m *mpi.Rank) {
				n := m.Size()
				counts, displs := make([]int, n), make([]int, n)
				for r := range counts {
					counts[r], displs[r] = 1+r%2, 2*r
				}
				buf, out := m.Malloc(block.Span(2*n)), m.Malloc(block.Span(n))
				op := map[string]func(){
					"Allgather":  func() { m.Allgather(buf, block, 1) },
					"Allgatherv": func() { m.Allgatherv(buf, counts, displs, block) },
					"Alltoall":   func() { m.Alltoall(buf, block, 1, out, block, 1) },
				}[coll]
				for range warm {
					op()
				}
				if m.Rank() != 0 {
					for range runs + 1 {
						op()
					}
					return
				}
				got = testing.AllocsPerRun(runs, op)
			})
			w.Close()
			if got != 0 {
				t.Errorf("%s (flat %v): %.1f objects per call, want 0", coll, flat, got)
			}
		}
	}
}
