package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
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

// TestAlltoallSendsInStepOrder: the flat Alltoall posts every receive
// up front and then sends its blocks one at a time in step order
// (DESIGN decision 29). On 4 nodes of 4 ranks with 128 KiB Vector
// blocks in device memory — rendezvous messages, each staged through
// host memory — every byte arrives, the last rank returns (the time
// BENCH_scale.json gives a collective) under 1 900 us, which lockstep
// steps miss, and the ranks' host arenas together back at most 256 MiB,
// which more than one send in flight exceeds.
func TestAlltoallSendsInStepOrder(t *testing.T) {
	dt := datatype.Vector(16384, 8, 16, datatype.Byte) // 128 KiB packed
	w := NewWorld(blockedConfig(4, 4, true))
	defer w.Close()
	size := w.Size()
	got := make([][]byte, size)
	var end sim.Time // the last rank's return from the Alltoall
	w.Run(func(m *Rank) {
		send, recv := m.Malloc(dt.Span(size)), m.Malloc(dt.Span(size))
		for peer := range size {
			mem.FillPattern(send.Slice(int64(peer)*dt.Extent(), dt.Span(1)), uint64(1000*m.Rank()+peer))
		}
		m.Alltoall(send, dt, 1, recv, dt, 1)
		end = max(end, m.Now())
		got[m.Rank()] = cpuPack(dt, size, recv.Bytes())
	})
	checkQuiescent(t, w, "alltoall")
	ref := mem.NewSpace("ref", mem.Host, dt.Span(1))
	rb := ref.Alloc(dt.Span(1), 1)
	for j := range size {
		for i := range size {
			mem.FillPattern(rb, uint64(1000*i+j))
			if !bytes.Equal(got[j][int64(i)*dt.Size():int64(i+1)*dt.Size()], cpuPack(dt, 1, rb.Bytes())) {
				t.Fatalf("rank %d: block from rank %d corrupted", j, i)
			}
		}
	}
	var staged int64
	for _, m := range w.ranks {
		staged += m.Staging().UsedBacking()
	}
	if end.Micros() >= 1900 || staged > 256<<20 {
		t.Fatalf("alltoall ended at %.1f us with %d MiB of host staging; want under 1 900 us and at most 256 MiB", end.Micros(), staged>>20)
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
