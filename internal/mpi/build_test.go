package mpi_test

import (
	"runtime"
	"testing"
	"time"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
)

// TestWorldBuildCost pins what a world costs that its ranks do not use:
// a 64-rank fat-tree world (coll_real's shape) run through one barrier,
// its 128-rank twin, and a two-node pair. A daemon holds a coroutine
// only while it has work, so the coroutines are about one per rank main;
// every rank builds the datatype engine of its own GPU and no other, and
// a node builds its PCIe paths on first use. A world is built from
// values (DESIGN decision 26): a channel is derived from its two ranks,
// a link holds its lock, a path is its hops, and a daemon (sim.Server)
// is a field of the record it serves. It is built in slabs (DESIGN
// decision 33): one array per kind of object — links, resources, paths
// and their hops, nodes, GPUs, HCAs, ranks — whatever the world's size,
// names from the process-wide name table, the engine's queue and slot
// tables off their shelf, and the tables first use fills — paths, the
// inboxes' messages on the wire, the unexpected list — sized at build.
// The 64-rank world takes 65 coroutines and the pair 3, from the carrier
// shelf once an earlier world has left them there, so a world built
// after another makes none; it costs 43 allocations, and the 128-rank
// world no more: the one array of each kind, the engine's idle carriers
// list (which grows by doubling), and a few tables grown once. Built one
// object at a time, with each owner's names made anew, the 64-rank world
// cost 1 598 and the 128-rank one 3 152. With a coroutine per
// daemon and an engine per GPU per rank, the 64-rank world made 400 and
// 11 847, and 8; with each daemon's Proc on the heap, 3 034; with a DEV
// cache shared per device, 2 682; with the engine's own map for it,
// 2 554; with a coroutine shelf, 1 581; with each rank's staging arena
// pinned at build, 1 597. The race build makes as many: it made 28
// more while core.New concatenated a stream name.
func TestWorldBuildCost(t *testing.T) {
	barrier := func(spec cluster.Spec) (coroutines int) {
		w := mpi.NewWorld(spec.Config())
		w.Run(func(m *mpi.Rank) { m.Barrier() })
		w.Close()
		return w.Engine().Coroutines()
	}
	small, big := cluster.Scale(16, 4, 4, 2), cluster.Scale(32, 4, 4, 2)
	for _, tc := range []struct {
		name string
		spec cluster.Spec
		max  int
	}{
		{"64-rank barrier", small, 70},
		{"128-rank barrier", big, 134},
		{"TwoNode barrier", cluster.TwoNode(), 3},
	} {
		if got := barrier(tc.spec); got > tc.max {
			t.Errorf("%s: %d coroutines, want at most %d", tc.name, got, tc.max)
		}
	}

	const maxAllocs = 43
	got := testing.AllocsPerRun(5, func() { barrier(small) })
	if got > maxAllocs {
		t.Errorf("64-rank build + barrier + close: %.0f allocations, want at most %d", got, maxAllocs)
	}
	barrier(big)
	if got2 := testing.AllocsPerRun(5, func() { barrier(big) }); got2 > 1.05*got {
		t.Errorf("128-rank build + barrier + close: %.0f allocations, more than 5 %% over the 64-rank world's %.0f", got2, got)
	}
}

// TestClosedWorldIsCollectable: a closed world leaves nothing on the
// process-wide shelves and tables that names it — not its idle
// coroutines, not its engine's event queue or slot tables, not its
// names, not its eager or receive records, not its ranks' staging
// arenas, their pooled buffers, their stage records, their matching
// lists or their request batches — so its engine, its slabs (the array
// of its nodes, whose GPUs hold its device memory, and the array of its
// links), and the device memory a stage's blocks or a device ring would
// name, are garbage-collected. The worlds stage
// through every pool of an arena: an eager Alltoall (bounce buffers), a
// held Bcast (a stage naming device blocks and their datatype) and a
// noncontiguous host rendezvous across nodes (host rings); and their
// batches post rendezvous sends, whose records stay per world and name
// it: a flat Alltoall of blocks past the eager limit and a ring
// NeighborAlltoallw of them.
func TestClosedWorldIsCollectable(t *testing.T) {
	eager := datatype.Contiguous(64, datatype.Float64)
	large := datatype.Contiguous(16<<10, datatype.Float64) // 128 KiB: rendezvous
	vec := datatype.Vector(16<<10, 8, 16, datatype.Byte)   // 128 KiB packed: rendezvous
	for _, tc := range []struct {
		name string
		flat bool
		job  func(m *mpi.Rank, all *mpi.Group)
	}{
		{"eager alltoall", false, func(m *mpi.Rank, _ *mpi.Group) {
			n := int64(m.Size()) * eager.Size()
			m.Alltoall(m.Malloc(n), eager, 1, m.Malloc(n), eager, 1)
		}},
		{"held bcast", false, func(m *mpi.Rank, _ *mpi.Group) {
			m.Bcast(m.Malloc(eager.Size()), eager, 1, 0)
		}},
		{"host ring", false, func(m *mpi.Rank, _ *mpi.Group) {
			switch far := m.Size() - 1; m.Rank() {
			case 0:
				m.Send(m.MallocHost(vec.Span(1)), vec, 1, far, 0)
			case far:
				m.Recv(m.MallocHost(vec.Span(1)), vec, 1, 0, 0)
			}
		}},
		{"rendezvous batches", true, func(m *mpi.Rank, all *mpi.Group) {
			n := int64(m.Size()) * large.Size()
			m.Alltoall(m.Malloc(n), large, 1, m.Malloc(n), large, 1)
			face := func(peer int) mpi.Neighbor {
				return mpi.Neighbor{Buf: m.Malloc(large.Size()), Dt: large, Count: 1, Peer: peer}
			}
			left, right := (m.Rank()+m.Size()-1)%m.Size(), (m.Rank()+1)%m.Size()
			all.NeighborAlltoallw(m, []mpi.Neighbor{face(left), face(right)}, []mpi.Neighbor{face(left), face(right)})
		}},
	} {
		engine, device, links := make(chan struct{}), make(chan struct{}), make(chan struct{})
		func() {
			cfg := cluster.Scale(2, 2, 2, 2).Config()
			if tc.flat {
				cfg.Tuning = &mpi.Tuning{Collectives: mpi.CollFlat}
			}
			w := mpi.NewWorld(cfg)
			runtime.AddCleanup(w.Engine(), func(c chan struct{}) { close(c) }, engine)
			runtime.AddCleanup(w.Node(0).GPU(0).Mem(), func(c chan struct{}) { close(c) }, device)
			runtime.AddCleanup(w.Engine().Links()[0], func(c chan struct{}) { close(c) }, links)
			ranks := make([]int, w.Size())
			for r := range ranks {
				ranks[r] = r
			}
			all := w.NewGroup(ranks)
			w.Run(func(m *mpi.Rank) { tc.job(m, all) })
			w.Close()
		}()
		if !collectedSoon(engine) {
			t.Fatalf("%s: a closed world's engine is still reachable", tc.name)
		}
		if !collectedSoon(device) {
			t.Fatalf("%s: a closed world's device memory is still reachable", tc.name)
		}
		if !collectedSoon(links) {
			t.Fatalf("%s: a closed world's link slab is still reachable", tc.name)
		}
	}
}

// collectedSoon collects garbage until c is closed, for up to about
// 100 ms.
func collectedSoon(c chan struct{}) bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-c:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}
