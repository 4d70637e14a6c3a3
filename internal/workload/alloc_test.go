package workload

import (
	"testing"

	"gpuddt/internal/cluster"
)

// TestStencilAllocsPerRank bounds what a stencil job of app_stencil's
// shape (64 ranks, a box of 16 cubed, six sweeps) allocates per rank, its
// world's build and close included: at most 50 objects (48.8 measured).
// A rank's state is one record — its grid coordinates, torus extents,
// index scratch and twelve neighbour entries in fixed arrays — beside its
// field, its fold table and its interior-row list, sized once; and a
// sweep's compute kernel is one object. With a slice per coordinate
// array, two neighbour literals per dimension, an appended row list and
// a closure per kernel, the job made 72.8 per rank.
func TestStencilAllocsPerRank(t *testing.T) {
	spec := cluster.Scale(16, 4, 4, 2)
	ranks := make([]int, spec.Size())
	for i := range ranks {
		ranks[i] = i
	}
	st := Stencil{Procs: []int{4, 4, 4}, Box: []int{16, 16, 16}, Iters: 6}
	job := func() {
		if _, _, err := Run(spec.Config(), []JobSpec{{Name: "stencil", W: st, Seed: 1, Ranks: ranks}}, nil, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	job()
	if got := testing.AllocsPerRun(3, job) / float64(len(ranks)); got > 50 {
		t.Errorf("a stencil job allocated %.1f objects per rank, want at most 50", got)
	}
}
