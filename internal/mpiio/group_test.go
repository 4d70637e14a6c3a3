package mpiio

import (
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// TestGroupScopedBarrier opens two files, each completing its
// collective I/O with a group barrier over half the world, and lets
// only those ranks write: with the default world-wide barrier this
// deadlocks against the non-participating ranks, so finishing at all
// (plus correct file contents) is the property under test. Both files
// share one storage link, the contended-file-system shape the
// interference studies use.
func TestGroupScopedBarrier(t *testing.T) {
	w := mpi.NewWorld(fourRanks())
	ga := w.NewGroup([]int{0, 1})
	gb := w.NewGroup([]int{2, 3})
	shared := w.Engine().NewLink("fs:shared", 3, 100*sim.Microsecond)
	const half = 1024
	open := func(name string, g *mpi.Group) *File {
		return Open(w, name, 2*half, Params{
			Link:    shared,
			Barrier: func(m *mpi.Rank) { g.Barrier(m) },
		})
	}
	fa := open("job-a.ckpt", ga)
	fb := open("job-b.ckpt", gb)
	w.Run(func(m *mpi.Rank) {
		g, f, fill := ga, fa, byte(0xa0)
		if m.Rank() >= ga.Size() { // ga is ranks 0 and 1
			g, f, fill = gb, fb, byte(0xb0)
		}
		lr := g.LocalRank(m)
		buf := m.MallocHost(half)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = fill | byte(lr)
		}
		f.SetView(m, int64(lr)*half, datatype.Contiguous(half, datatype.Byte))
		f.WriteAll(m, buf, datatype.Contiguous(half, datatype.Byte), 1)
	})
	for lr := 0; lr < 2; lr++ {
		for _, c := range []struct {
			f    *File
			fill byte
		}{{fa, 0xa0}, {fb, 0xb0}} {
			got := c.f.Bytes()[lr*half : (lr+1)*half]
			for i, b := range got {
				if b != c.fill|byte(lr) {
					t.Fatalf("file %x slot %d byte %d = %x, want %x", c.fill, lr, i, b, c.fill|byte(lr))
				}
			}
		}
	}
	w.Close()
}
