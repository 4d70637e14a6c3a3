package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// fourRanks spreads four ranks over two nodes with two GPUs each, so
// collectives cross both the SM and IB BTLs.
func fourRanks() Config {
	return Config{Ranks: []Placement{
		{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}, {Node: 1, GPU: 1},
	}}
}

func TestBcastGPUTriangular(t *testing.T) {
	dt := shapes.LowerTriangular(256) // ~260 KB: rendezvous
	root := 2
	w := NewWorld(fourRanks())
	imgs := make([][]byte, 4)
	w.Run(func(m *Rank) {
		buf := m.Malloc(dt.Span(1))
		if m.Rank() == root {
			mem.FillPattern(buf, 17)
		}
		m.Bcast(buf, dt, 1, root)
		imgs[m.Rank()] = cpuPack(dt, 1, buf.Bytes())
	})
	for r := 0; r < 4; r++ {
		if !bytes.Equal(imgs[r], imgs[root]) {
			t.Fatalf("rank %d bcast data differs from root", r)
		}
	}
}

func TestBcastEveryRoot(t *testing.T) {
	dt := datatype.Contiguous(50000, datatype.Float64) // 400 KB
	for root := 0; root < 4; root++ {
		w := NewWorld(fourRanks())
		imgs := make([][]byte, 4)
		w.Run(func(m *Rank) {
			buf := m.MallocHost(dt.Size())
			if m.Rank() == root {
				mem.FillPattern(buf, uint64(root+5))
			}
			m.Bcast(buf, dt, 1, root)
			imgs[m.Rank()] = append([]byte(nil), buf.Bytes()...)
		})
		for r := 0; r < 4; r++ {
			if !bytes.Equal(imgs[r], imgs[root]) {
				t.Fatalf("root %d: rank %d differs", root, r)
			}
		}
	}
}

func TestAllgatherGPUVector(t *testing.T) {
	// Each rank contributes a strided sub-matrix slot; after Allgather
	// every rank holds all four slots.
	n := 128
	dt := shapes.SubMatrix(n, n, n+16) // strided: non-contiguous slots
	w := NewWorld(fourRanks())
	imgs := make([][]byte, 4)
	w.Run(func(m *Rank) {
		stride := dt.Extent()
		buf := m.Malloc(4 * stride)
		// Fill only my slot.
		mem.FillPattern(buf.Slice(int64(m.Rank())*stride, dt.Span(1)), uint64(100+m.Rank()))
		m.Allgather(buf, dt, 1)
		// Pack all four slots for comparison.
		var all []byte
		for r := 0; r < 4; r++ {
			all = append(all, cpuPack(dt, 1, buf.Slice(int64(r)*stride, dt.Span(1)).Bytes())...)
		}
		imgs[m.Rank()] = all
	})
	for r := 1; r < 4; r++ {
		if !bytes.Equal(imgs[r], imgs[0]) {
			t.Fatalf("rank %d allgather result differs from rank 0", r)
		}
	}
	// Each slot must carry its contributor's pattern (non-zero).
	zero := make([]byte, len(imgs[0]))
	if bytes.Equal(imgs[0], zero) {
		t.Fatal("allgather produced zero data")
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Tag management: consecutive collectives must not cross-match.
	dt := datatype.Contiguous(100000, datatype.Float64)
	w := NewWorld(fourRanks())
	ok := true
	w.Run(func(m *Rank) {
		buf := m.MallocHost(dt.Size())
		for iter := 0; iter < 3; iter++ {
			if m.Rank() == 0 {
				mem.FillPattern(buf, uint64(iter))
			}
			m.Bcast(buf, dt, 1, 0)
			m.Barrier()
			ref := m.MallocHost(dt.Size())
			mem.FillPattern(ref, uint64(iter))
			if !mem.Equal(ref, buf) {
				ok = false
			}
		}
	})
	if !ok {
		t.Fatal("back-to-back collectives corrupted data")
	}
}
