package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

func TestAlltoallGPU(t *testing.T) {
	for _, ranks := range [][]Placement{
		fourRanks().Ranks,
		{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}}, // non power of two
	} {
		size := len(ranks)
		slotElems := 20000 // 160 KB per slot: rendezvous
		dt := datatype.Contiguous(slotElems, datatype.Float64)
		w := NewWorld(Config{Ranks: ranks})
		got := make([][]byte, size)
		w.Run(func(m *Rank) {
			send := m.Malloc(int64(size) * dt.Size())
			recv := m.Malloc(int64(size) * dt.Size())
			// Slot j gets a pattern identifying (sender, receiver).
			for j := 0; j < size; j++ {
				mem.FillPattern(send.Slice(int64(j)*dt.Size(), dt.Size()), uint64(m.Rank()*100+j))
			}
			m.Alltoall(send, dt, 1, recv, dt, 1)
			got[m.Rank()] = append([]byte(nil), recv.Bytes()...)
		})
		// recv slot i at rank j must equal pattern (i*100 + j).
		ref := mem.NewSpace("ref", mem.Host, dt.Size())
		rb := ref.Alloc(dt.Size(), 1)
		for j := 0; j < size; j++ {
			for i := 0; i < size; i++ {
				mem.FillPattern(rb, uint64(i*100+j))
				seg := got[j][i*int(dt.Size()) : (i+1)*int(dt.Size())]
				if !bytes.Equal(seg, rb.Bytes()) {
					t.Fatalf("size %d: rank %d slot %d corrupted", size, j, i)
				}
			}
		}
	}
}

func TestAlltoallDatatypeReshape(t *testing.T) {
	// Send slots as strided vectors, receive contiguous: the distributed
	// transpose building block.
	n := 64
	sdt := shapes.SubMatrix(n, n, n+8)
	rdt := datatype.Contiguous(n*n, datatype.Float64)
	w := NewWorld(fourRanks())
	var ok = true
	w.Run(func(m *Rank) {
		sstride := sdt.Extent()
		send := m.Malloc(4 * sstride)
		recv := m.Malloc(4 * rdt.Size())
		for j := 0; j < 4; j++ {
			mem.FillPattern(send.Slice(int64(j)*sstride, sdt.Span(1)), uint64(m.Rank()*10+j))
		}
		m.Alltoall(send, sdt, 1, recv, rdt, 1)
		// Verify slot m.Rank() (self copy) survived the reshape.
		self := cpuPack(sdt, 1, send.Slice(int64(m.Rank())*sstride, sdt.Span(1)).Bytes())
		gotSelf := recv.Slice(int64(m.Rank())*rdt.Size(), rdt.Size()).Bytes()
		if !bytes.Equal(self, gotSelf) {
			ok = false
		}
	})
	if !ok {
		t.Fatal("alltoall reshape corrupted the local slot")
	}
}
