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
// (TestHierAlltoallViewsBuiltOnce), so five of the six cost 0. Before
// that, the hierarchical Allgather, Allgatherv and Alltoall made 444,
// 308 and 128 objects per call: Allgather's counts and displacements,
// hierAllgatherv's four index arrays and the unpack's block list, and
// the leaders' views. The flat Alltoall costs 1 (as at the parent) and
// makes no object per call: its ranks drift up to a call apart, and the
// high-water marks of their unexpected-message lists, staging free lists
// and resource wait queues still rise now and then after 150 calls (25
// objects over the next 100), each rise one slice grown.
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
			want := 0.0
			if flat && coll == "Alltoall" {
				want = 1
			}
			if got != want {
				t.Errorf("%s (flat %v): %.1f objects per call, want %.0f", coll, flat, got, want)
			}
		}
	}
}
