package mpi_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
)

// TestWorldBuildCost pins what a world costs that its ranks do not use:
// a 64-rank fat-tree world (coll_real's shape) run through one barrier,
// and a two-node pair. A daemon holds a coroutine only while it has work,
// so the coroutines are about one per rank main; every rank builds the
// datatype engine of its own GPU and no other, and a node builds its
// PCIe paths on first use. A world is built from values (DESIGN
// decision 26): a channel is derived from its two ranks, a link holds
// its lock, a path is its hops, an owner's names are one string, and a
// daemon (sim.Server) is a field of the record it serves. The 64-rank
// world takes 65 coroutines and the pair 3, from the carrier shelf once
// an earlier world has left them there, so a world built after another
// makes none; the 64-rank world costs 1 581 allocations: its links and
// nodes, and its ranks' names, contexts and datatype engines. With a
// coroutine per daemon and an engine per GPU per rank, they made 400 and
// 11 847, and 8; with each daemon's Proc on the heap, 3 034; with a DEV
// cache shared per device, 2 682; with the engine's own map for it,
// 2 554; with a coroutine shelf, 1 581.
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
	// slab pool a closed world's memory returns to is one (the carrier
	// and record shelves are not).
	var pool sync.Pool
	for i, x := 0, new(int); i < 64; i++ {
		pool.Put(x)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping (-race): allocation counts are not exact")
		}
	}
	const maxAllocs = 1612
	big := cluster.Scale(16, 4, 4, 2)
	if got := testing.AllocsPerRun(5, func() { barrier(big) }); got > maxAllocs {
		t.Errorf("64-rank build + barrier + close: %.0f allocations, want at most %d", got, maxAllocs)
	}
}

// TestClosedWorldIsCollectable: a closed world leaves nothing on the
// process-wide shelves that names it — not its idle coroutines, not its
// eager or receive records — so its engine is garbage-collected.
func TestClosedWorldIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		w := mpi.NewWorld(cluster.Scale(2, 2, 2, 2).Config())
		runtime.AddCleanup(w.Engine(), func(c chan struct{}) { close(c) }, collected)
		dt := datatype.Contiguous(64, datatype.Float64) // eager
		w.Run(func(m *mpi.Rank) {
			n := int64(m.Size()) * dt.Size()
			m.Alltoall(m.Malloc(n), dt, 1, m.Malloc(n), dt, 1)
		})
		w.Close()
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a closed world's engine is still reachable")
}
