// Stencil2d: the SHOC-style 2D stencil halo exchange from the paper's
// motivation (§3): each rank owns a (n+2) x (n+2) row-major grid with a
// one-cell halo. North/south boundaries are contiguous rows; east/west
// boundaries are non-contiguous columns described by a vector datatype —
// exactly the case where GPU-aware datatypes replace hand-written
// packing. Each step posts the halo receive and the edge send as
// nonblocking requests, and an Allreduce at the end lets every rank
// agree on how many halos came out wrong, as a solver agrees on a
// residual.
//
//	go run ./examples/stencil2d
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

const (
	n     = 1024        // interior cells per dimension
	rows  = n + 2       // grid rows including halo
	pitch = (n + 2) * 8 // row pitch in bytes
	steps = 3           // halo-exchange iterations
)

// offset returns the byte offset of grid cell (r, c).
func offset(r, c int) int64 { return int64(r)*int64(pitch) + int64(c)*8 }

func main() {
	// A 1x2 process grid: rank 0 west, rank 1 east, one GPU each.
	world := mpi.NewWorld(mpi.Config{
		Ranks: []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
	})

	// The east/west boundary column: n doubles strided by the grid pitch.
	column := shapes.HaloColumn(n)
	fmt.Printf("halo column type: %d blocks of 8 bytes, stride %d (non-contiguous)\n",
		column.NumBlocks(), pitch)

	ok := true
	world.Run(func(m *mpi.Rank) {
		grid := m.Malloc(int64(rows) * int64(pitch))
		mem.FillPattern(grid, uint64(m.Rank()+1))
		peer := 1 - m.Rank()
		var bad int64

		for step := 0; step < steps; step++ {
			// Send my interior east/west edge; receive into my halo.
			var sendCol, recvCol int
			if m.Rank() == 0 {
				sendCol, recvCol = n, n+1 // east edge, east halo
			} else {
				sendCol, recvCol = 1, 0 // west edge, west halo
			}
			sendView := grid.Slice(offset(1, sendCol), int64(rows-2)*int64(pitch))
			recvView := grid.Slice(offset(1, recvCol), int64(rows-2)*int64(pitch))
			recv := m.Irecv(recvView, column, 1, peer, step)
			send := m.Isend(sendView, column, 1, peer, step)
			m.WaitAll(recv, send)

			// Verify the halo now mirrors the peer's edge pattern.
			if !verifyHalo(m, grid, recvCol, peer, step) {
				bad++
			}
		}
		mine, total := m.MallocHost(8), m.MallocHost(8)
		binary.LittleEndian.PutUint64(mine.Bytes(), uint64(bad))
		m.Allreduce(mine, total, datatype.Int64, 1, mpi.OpSum)
		if binary.LittleEndian.Uint64(total.Bytes()) != 0 {
			ok = false
		}
		if m.Rank() == 0 {
			fmt.Printf("rank 0: %d halo exchanges done at %v (virtual)\n", steps, m.Now())
		}
	})
	if !ok {
		log.Fatal("halo verification failed")
	}
	fmt.Println("verified: halo columns match the peer's edge bytes after every step")
}

// verifyHalo checks the received halo column against what the peer sent
// (both ranks fill deterministically and never modify the interior, so
// the expected bytes are recomputable).
func verifyHalo(m *mpi.Rank, grid mem.Buffer, recvCol, peer, step int) bool {
	// Rebuild the peer's grid pattern locally.
	ref := make([]byte, rows*pitch)
	tmp := mem.NewSpace("ref", mem.Host, int64(len(ref)))
	rb := tmp.Alloc(int64(len(ref)), 1)
	mem.FillPattern(rb, uint64(peer+1))
	var sendCol int
	if peer == 0 {
		sendCol = n
	} else {
		sendCol = 1
	}
	c := datatype.NewConverter(shapes.HaloColumn(n), 1)
	want := make([]byte, c.Total())
	c.Pack(want, rb.Bytes()[offset(1, sendCol):])

	c2 := datatype.NewConverter(shapes.HaloColumn(n), 1)
	got := make([]byte, c2.Total())
	c2.Pack(got, grid.Bytes()[offset(1, recvCol):])
	for i := range want {
		if want[i] != got[i] {
			fmt.Printf("rank %d step %d: halo byte %d mismatch\n", m.Rank(), step, i)
			return false
		}
	}
	return true
}
