// One-sided halo exchange: instead of matched Send/Recv pairs, each
// rank Puts its boundary column straight into the neighbour's halo
// through an RMA window — the "one-sided functions" consumers the paper
// lists for committed datatypes. The GPU datatype engine packs the
// strided column at the origin and scatters it into the target's
// strided halo with no application code running on the target. A final
// Get pulls the peer's edge back into a contiguous column, the target
// again running no code of its own.
//
//	go run ./examples/onesided
package main

import (
	"bytes"
	"fmt"
	"log"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

const (
	n     = 512
	pitch = (n + 2) * 8
	steps = 3
)

func offset(r, c int) int64 { return int64(r)*pitch + int64(c)*8 }

func main() {
	world := mpi.NewWorld(mpi.Config{
		Ranks: []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
	})
	column := shapes.HaloColumn(n)

	ok := true
	world.Run(func(m *mpi.Rank) {
		grid := m.Malloc(int64(n+2) * pitch)
		mem.FillPattern(grid, uint64(m.Rank()+1))
		win := m.WinCreate(grid)
		peer := 1 - m.Rank()

		var sendCol, haloCol int
		if m.Rank() == 0 {
			sendCol, haloCol = n, 0 // my east edge -> peer's west halo
		} else {
			sendCol, haloCol = 1, n+1 // my west edge -> peer's east halo
		}
		for step := 0; step < steps; step++ {
			win.Put(
				grid.Slice(offset(1, sendCol), int64(n)*pitch), column, 1,
				peer, offset(1, haloCol), column, 1,
			)
			win.Fence()
			// My own halo (written by the peer) must now mirror the
			// peer's edge pattern.
			myHalo := 0
			peerEdge := n
			if m.Rank() == 0 {
				myHalo = n + 1
				peerEdge = 1
			}
			if !haloMatches(grid, myHalo, peer, peerEdge) {
				ok = false
			}
		}
		// Pull the peer's edge column out of its window into a packed
		// column here: it must equal the halo the peer put.
		pulled := m.Malloc(int64(n) * 8)
		peerEdge, myHalo := n, 0
		if m.Rank() == 0 {
			peerEdge, myHalo = 1, n+1
		}
		win.Get(pulled, datatype.Contiguous(n, datatype.Float64), 1, peer, offset(1, peerEdge), column, 1)
		win.Fence()
		if !bytes.Equal(pulled.Bytes(), packColumn(grid.Bytes(), myHalo)) {
			ok = false
		}
		if m.Rank() == 0 {
			fmt.Printf("%d one-sided halo exchanges and a Get done at %v (virtual)\n", steps, m.Now())
		}
	})
	if !ok {
		log.Fatal("one-sided halo verification failed")
	}
	fmt.Println("verified: Put scattered each boundary column into the neighbour's halo, and Get read it back")
}

// haloMatches checks the received halo column against the peer's
// deterministic edge pattern.
func haloMatches(grid mem.Buffer, haloCol, peer, peerEdgeCol int) bool {
	ref := mem.NewSpace("ref", mem.Host, int64(n+2)*pitch)
	rb := ref.Alloc(int64(n+2)*pitch, 1)
	mem.FillPattern(rb, uint64(peer+1))
	return bytes.Equal(packColumn(rb.Bytes(), peerEdgeCol), packColumn(grid.Bytes(), haloCol))
}

// packColumn returns column col's interior cells, packed.
func packColumn(grid []byte, col int) []byte {
	c := datatype.NewConverter(shapes.HaloColumn(n), 1)
	out := make([]byte, c.Total())
	c.Pack(out, grid[offset(1, col):])
	return out
}
