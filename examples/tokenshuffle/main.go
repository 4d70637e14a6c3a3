// Token shuffle: a mixture-of-experts layer routes each rank's tokens to
// the ranks that host their experts, so every pair of ranks exchanges a
// different number of them — some none. Rank.Alltoallv takes the per-peer
// counts and displacements: each rank sends runs of token rows straight
// out of its padded activation matrix in GPU memory (a resized row
// datatype: the padding is skipped, not copied), and receives them packed
// back to back, grouped by source rank.
//
//	go run ./examples/tokenshuffle
package main

import (
	"bytes"
	"fmt"
	"log"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

const (
	width = 96  // doubles per token
	pitch = 128 // doubles per row of the activation matrix
)

// routed is how many tokens rank from sends to rank to: 0, 8, 16 or 24,
// a different mix for every rank.
func routed(from, to int) int { return 8 * ((from + 2*to) % 4) }

// layout returns the counts and displacements (in tokens) of one rank's
// blocks, block j holding count(j) tokens, back to back.
func layout(n int, count func(j int) int) (counts, displs []int, total int) {
	counts, displs = make([]int, n), make([]int, n)
	for j := range counts {
		counts[j], displs[j] = count(j), total
		total += counts[j]
	}
	return counts, displs, total
}

func main() {
	world := mpi.NewWorld(mpi.Config{Ranks: []mpi.Placement{
		{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}, {Node: 1, GPU: 1},
	}})
	defer world.Close()
	n := world.Size()
	row := datatype.Contiguous(width, datatype.Float64)
	token := datatype.Resized(row, 0, pitch*8) // one row of the padded matrix

	sent := make([][]byte, n) // each rank's activation matrix, as filled
	got := make([][]byte, n)  // each rank's received tokens
	var elapsed sim.Time
	world.Run(func(m *mpi.Rank) {
		me := m.Rank()
		scounts, sdispls, out := layout(n, func(j int) int { return routed(me, j) })
		rcounts, rdispls, in := layout(n, func(i int) int { return routed(i, me) })
		act := m.Malloc(token.Span(out))
		mem.FillPattern(act, uint64(100+me))
		sent[me] = bytes.Clone(act.Bytes())
		recv := m.Malloc(row.Span(in))
		m.Barrier()
		t0 := m.Now()
		m.Alltoallv(act, scounts, sdispls, token, recv, rcounts, rdispls, row)
		if d := m.Now() - t0; d > elapsed {
			elapsed = d
		}
		got[me] = bytes.Clone(recv.Bytes())
	})

	// Rank j's block from rank i is the packed image of the tokens rank i
	// routed to j, at the offset of i's block in j's receive layout.
	var moved int64
	for j := 0; j < n; j++ {
		_, rdispls, _ := layout(n, func(i int) int { return routed(i, j) })
		for i := 0; i < n; i++ {
			if routed(i, j) == 0 {
				continue // an empty block has no memory
			}
			_, sdispls, _ := layout(n, func(k int) int { return routed(i, k) })
			c := datatype.NewConverter(token, routed(i, j))
			want := make([]byte, c.Total())
			c.Pack(want, sent[i][int64(sdispls[j])*token.Extent():])
			at := int64(rdispls[i]) * row.Size()
			if !bytes.Equal(got[j][at:at+c.Total()], want) {
				log.Fatalf("rank %d: tokens from rank %d differ", j, i)
			}
			moved += c.Total()
		}
	}
	fmt.Printf("token shuffle over %d ranks on 2 nodes: %d KiB in %v\n", n, moved>>10, elapsed)
	for i := 0; i < n; i++ {
		fmt.Printf("  rank %d sends", i)
		for j := 0; j < n; j++ {
			fmt.Printf(" %2d", routed(i, j))
		}
		fmt.Println(" tokens")
	}
	fmt.Println("verified: every rank received exactly the tokens routed to it")
}
