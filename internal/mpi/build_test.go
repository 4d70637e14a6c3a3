package mpi_test

import (
	"sync"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
)

// TestWorldBuildCost pins what a world costs that its ranks do not use:
// a 64-rank fat-tree world (coll_real's shape) run through one barrier,
// and a two-node pair. A daemon holds a coroutine only while it has work
// (sim.Serve), so the coroutines are about one per rank main; every
// rank builds the datatype engine of its own GPU and no other, and a
// node builds its PCIe paths on first use. A world is built from values
// (DESIGN decision 26): a channel is derived from its two ranks, a link
// holds its lock, a path is its hops, and an owner's names are one
// string. The 64-rank world makes 65 coroutines and costs about 3 030
// allocations, the pair makes 3. What remains is the coroutines (about
// 590), the links, the GPUs' streams and the ranks' datatype engines.
// With a coroutine per daemon and an engine per GPU per rank, they made
// 400 and 11 847, and 8.
func TestWorldBuildCost(t *testing.T) {
	barrier := func(spec cluster.Spec) (coroutines int) {
		w := mpi.NewWorld(spec.Config())
		w.Run(func(m *mpi.Rank) { m.Barrier() })
		w.Close()
		return w.Engine().Coroutines()
	}
	for _, tc := range []struct {
		name string
		spec cluster.Spec
		max  int
	}{
		{"64-rank barrier", cluster.Scale(16, 4, 4, 2), 70},
		{"TwoNode barrier", cluster.TwoNode(), 3},
	} {
		if got := barrier(tc.spec); got > tc.max {
			t.Errorf("%s: %d coroutines, want at most %d", tc.name, got, tc.max)
		}
	}

	// Under the race detector sync.Pool drops what it is given, and the
	// slab pool a closed world's memory returns to is one.
	var pool sync.Pool
	for i, x := 0, new(int); i < 64; i++ {
		pool.Put(x)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping (-race): allocation counts are not exact")
		}
	}
	const maxAllocs = 3100
	big := cluster.Scale(16, 4, 4, 2)
	if got := testing.AllocsPerRun(5, func() { barrier(big) }); got > maxAllocs {
		t.Errorf("64-rank build + barrier + close: %.0f allocations, want at most %d", got, maxAllocs)
	}
}
