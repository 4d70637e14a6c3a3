package mpiio

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
)

func fourRanks() mpi.Config {
	return mpi.Config{Ranks: []mpi.Placement{
		{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}, {Node: 1, GPU: 1},
	}}
}

// TestDarrayViewsPartitionFile writes a block-cyclic distributed matrix
// from four ranks' GPUs through Darray views and checks the assembled
// file equals the logical global matrix.
func TestDarrayViewsPartitionFile(t *testing.T) {
	const n = 32 // 32x32 doubles = 8 KB file
	gs := []int{n, n}
	dist := []datatype.Distrib{datatype.DistribCyclic, datatype.DistribCyclic}
	dargs := []int{4, 4}
	ps := []int{2, 2}

	w := mpi.NewWorld(fourRanks())
	file := Open(w, "matrix.dat", n*n*8, Params{})
	w.Run(func(m *mpi.Rank) {
		piece := datatype.Darray(4, m.Rank(), gs, dist, dargs, ps, datatype.OrderFortran, datatype.Float64)
		// Local data: packed form of my piece, resident on my GPU. Fill
		// it so each byte encodes its *global* position: pack a
		// reference global matrix through my piece's layout.
		ref := mem.NewSpace("ref", mem.Host, n*n*8)
		rb := ref.Alloc(n*n*8, 1)
		for i := range rb.Bytes() {
			rb.Bytes()[i] = byte(i * 13)
		}
		c := datatype.NewConverter(piece, 1)
		local := m.Malloc(c.Total())
		c.Pack(local.Bytes(), rb.Bytes())

		// The file view is my Darray piece; write my packed data.
		file.SetView(m, 0, piece)
		contig := datatype.Contiguous(int(piece.Size()), datatype.Byte)
		file.WriteAll(m, local, contig, 1)
	})
	got := file.Bytes()
	for i := range got {
		if got[i] != byte(i*13) {
			t.Fatalf("file byte %d = %x, want %x", i, got[i], byte(i*13))
		}
	}
}

// TestWriteReadRoundTripGPU writes GPU-resident data from two ranks
// through interleaving views and checks every byte where the view puts
// it: rank r's 1 KB block b lands at file offset (2b+r) KB.
func TestWriteReadRoundTripGPU(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Ranks: []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}}})
	const elems = 4096
	// Rank r's view: every other 1 KB block, offset by rank.
	const blockBytes = 1024
	file := Open(w, "interleaved.dat", 2*elems*8, Params{})
	var want [2][]byte
	w.Run(func(m *mpi.Rank) {
		ft := datatype.Vector(1, blockBytes, 2*blockBytes, datatype.Byte) // one block, extent skips the peer's
		ftile := datatype.Resized(ft, 0, int64(2*blockBytes))
		file.SetView(m, int64(m.Rank()*blockBytes), ftile)

		dt := datatype.Contiguous(elems, datatype.Float64)
		buf := m.Malloc(dt.Size())
		mem.FillPattern(buf, uint64(m.Rank()+7))
		want[m.Rank()] = append([]byte(nil), buf.Bytes()...)
		file.WriteAll(m, buf, dt, 1)
	})
	fb := file.Bytes()
	for r := 0; r < 2; r++ {
		for b := 0; b < elems*8/blockBytes; b++ {
			at := (2*b + r) * blockBytes
			if !bytes.Equal(fb[at:at+blockBytes], want[r][b*blockBytes:(b+1)*blockBytes]) {
				t.Fatalf("rank %d block %d not at file offset %d", r, b, at)
			}
		}
	}
}

func TestViewValidation(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Ranks: []mpi.Placement{{Node: 0, GPU: 0}}})
	file := Open(w, "small.dat", 1024, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized write")
		}
	}()
	w.Run(func(m *mpi.Rank) {
		file.SetView(m, 0, datatype.Contiguous(1024, datatype.Byte))
		big := datatype.Contiguous(4096, datatype.Byte)
		file.WriteAll(m, m.MallocHost(4096), big, 1)
	})
}

func TestNoViewPanics(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Ranks: []mpi.Placement{{Node: 0, GPU: 0}}})
	file := Open(w, "noview.dat", 1024, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic without a view")
		}
	}()
	w.Run(func(m *mpi.Rank) {
		file.WriteAll(m, m.MallocHost(128), datatype.Contiguous(128, datatype.Byte), 1)
	})
}
