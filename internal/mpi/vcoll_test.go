package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// irregularCounts builds a deterministic size x size count matrix
// (entry [i][j] = elements i sends to j) with zeros sprinkled in and,
// when the world is big enough, one fully empty rank.
func irregularCounts(size int) [][]int {
	c := make([][]int, size)
	empty := -1
	if size > 2 {
		empty = size / 2
	}
	for i := range c {
		c[i] = make([]int, size)
		for j := range c[i] {
			if i == empty || j == empty {
				continue
			}
			c[i][j] = (i + 2*j) % 4
		}
	}
	return c
}

// transposeCounts derives the receive matrix from the send matrix.
func transposeCounts(c [][]int) [][]int {
	r := make([][]int, len(c))
	for i := range r {
		r[i] = make([]int, len(c))
		for j := range r[i] {
			r[i][j] = c[j][i]
		}
	}
	return r
}

// packedDispls lays the blocks out back to back in extent units with
// small deterministic gaps, returning the displacements and a buffer
// span covering them all.
func packedDispls(dt *datatype.Datatype, counts []int) ([]int, int64) {
	displs := make([]int, len(counts))
	ext := dt.Extent()
	cur := 0
	for r, n := range counts {
		displs[r] = cur
		blocks := int((dt.Span(n) + ext - 1) / ext)
		cur += blocks + r%2
	}
	return displs, int64(cur+1) * ext
}

// TestAlltoallvHierMatchesFlat exchanges an irregular matrix (zero
// pairs, one empty rank) through the hierarchical and flat paths and
// requires every received block to match the sender's packed bytes —
// which also makes the two paths byte-identical to each other.
func TestAlltoallvHierMatchesFlat(t *testing.T) {
	sdt := shapes.SubMatrix(8, 8, 12)
	rdt := shapes.SubMatrix(4, 16, 6)
	for _, sh := range hierShapes {
		size := sh.nodes * sh.rpn
		sc := irregularCounts(size)
		rc := transposeCounts(sc)
		sd := make([][]int, size)
		rd := make([][]int, size)
		sspan := make([]int64, size)
		rspan := make([]int64, size)
		for r := 0; r < size; r++ {
			sd[r], sspan[r] = packedDispls(sdt, sc[r])
			rd[r], rspan[r] = packedDispls(rdt, rc[r])
		}
		run := func(flat bool) (sent, got [][][]byte) {
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
			if w.TopologyAware() == flat {
				t.Fatalf("%dx%d: dispatch wrong", sh.nodes, sh.rpn)
			}
			sent = make([][][]byte, size)
			got = make([][][]byte, size)
			w.Run(func(m *Rank) {
				me := m.Rank()
				send := m.Malloc(sspan[me])
				recv := m.Malloc(rspan[me])
				sent[me] = make([][]byte, size)
				for j := 0; j < size; j++ {
					if sc[me][j] == 0 {
						continue
					}
					blk := vslot(send, sdt, sc[me][j], sd[me][j])
					mem.FillPattern(blk, uint64(1000+me*size+j))
					sent[me][j] = cpuPack(sdt, sc[me][j], blk.Bytes())
				}
				m.Alltoallv(send, sc[me], sd[me], sdt, recv, rc[me], rd[me], rdt)
				got[me] = make([][]byte, size)
				for j := 0; j < size; j++ {
					if rc[me][j] == 0 {
						continue
					}
					blk := vslot(recv, rdt, rc[me][j], rd[me][j])
					got[me][j] = cpuPack(rdt, rc[me][j], blk.Bytes())
				}
			})
			checkQuiescent(t, w, fmt.Sprintf("alltoallv %dx%d flat=%v", sh.nodes, sh.rpn, flat))
			w.Close()
			return sent, got
		}
		hSent, hGot := run(false)
		_, fGot := run(true)
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if !bytes.Equal(hGot[i][j], hSent[j][i]) {
					t.Fatalf("%dx%d: hier rank %d block from %d differs from sent bytes", sh.nodes, sh.rpn, i, j)
				}
				if !bytes.Equal(hGot[i][j], fGot[i][j]) {
					t.Fatalf("%dx%d: rank %d block from %d: hier differs from flat", sh.nodes, sh.rpn, i, j)
				}
			}
		}
	}
}

// TestAllgathervHierMatchesFlat gathers irregular per-rank blocks
// (including zero blocks) and checks both paths reproduce every
// sender's packed bytes at every rank.
func TestAllgathervHierMatchesFlat(t *testing.T) {
	dt := shapes.SubMatrix(16, 16, 24)
	for _, sh := range hierShapes {
		size := sh.nodes * sh.rpn
		counts := make([]int, size)
		for r := range counts {
			counts[r] = r % 4 // includes zero blocks
		}
		displs, span := packedDispls(dt, counts)
		run := func(flat bool) (sent, got [][][]byte) {
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
			sent = make([][][]byte, size)
			got = make([][][]byte, size)
			w.Run(func(m *Rank) {
				me := m.Rank()
				buf := m.Malloc(span)
				if counts[me] > 0 {
					blk := vslot(buf, dt, counts[me], displs[me])
					mem.FillPattern(blk, uint64(600+me))
					sent[me] = [][]byte{cpuPack(dt, counts[me], blk.Bytes())}
				}
				m.Allgatherv(buf, counts, displs, dt)
				got[me] = make([][]byte, size)
				for r := 0; r < size; r++ {
					if counts[r] == 0 {
						continue
					}
					got[me][r] = cpuPack(dt, counts[r], vslot(buf, dt, counts[r], displs[r]).Bytes())
				}
			})
			checkQuiescent(t, w, fmt.Sprintf("allgatherv %dx%d flat=%v", sh.nodes, sh.rpn, flat))
			w.Close()
			return sent, got
		}
		hSent, hGot := run(false)
		_, fGot := run(true)
		for i := 0; i < size; i++ {
			for r := 0; r < size; r++ {
				if counts[r] == 0 {
					continue
				}
				if !bytes.Equal(hGot[i][r], hSent[r][0]) {
					t.Fatalf("%dx%d: hier rank %d block %d differs from sender bytes", sh.nodes, sh.rpn, i, r)
				}
				if !bytes.Equal(hGot[i][r], fGot[i][r]) {
					t.Fatalf("%dx%d: rank %d block %d: hier differs from flat", sh.nodes, sh.rpn, i, r)
				}
			}
		}
	}
}

// TestVCollAllZero pins the degenerate case: every count zero must be
// a clean no-op on both paths (no message, no leak, no hang).
func TestVCollAllZero(t *testing.T) {
	dt := shapes.SubMatrix(8, 8, 12)
	for _, flat := range []bool{false, true} {
		w := NewWorld(blockedConfig(2, 2, flat))
		size := w.Size()
		zero := make([]int, size)
		w.Run(func(m *Rank) {
			buf := m.Malloc(dt.Extent() * int64(size))
			m.Allgatherv(buf, zero, zero, dt)
			m.Alltoallv(buf, zero, zero, dt, buf, zero, zero, dt)
		})
		checkQuiescent(t, w, fmt.Sprintf("all-zero flat=%v", flat))
		w.Close()
	}
}

// TestVCollPhaseSpans asserts the hierarchical v-variants keep the
// coll.*.intra/inter span discipline of the regular collectives.
func TestVCollPhaseSpans(t *testing.T) {
	dt := shapes.SubMatrix(8, 8, 12)
	w := NewWorld(blockedConfig(2, 2, false))
	rec := sim.NewRecorder(w.Engine())
	size := w.Size()
	counts := []int{1, 2, 1, 3}
	displs, span := packedDispls(dt, counts)
	sc := irregularCounts(size)
	rc := transposeCounts(sc)
	w.Run(func(m *Rank) {
		me := m.Rank()
		buf := m.Malloc(span)
		if counts[me] > 0 {
			mem.FillPattern(vslot(buf, dt, counts[me], displs[me]), uint64(80+me))
		}
		m.Allgatherv(buf, counts, displs, dt)
		sd, sspan := packedDispls(dt, sc[me])
		rd, rspan := packedDispls(dt, rc[me])
		send, recv := m.Malloc(sspan), m.Malloc(rspan)
		m.Alltoallv(send, sc[me], sd, dt, recv, rc[me], rd, dt)
	})
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tk := range rec.Tracks() {
		for i := range tk.Spans {
			seen[tk.Spans[i].Name] = true
		}
	}
	for _, want := range []string{
		"coll.allgatherv.intra", "coll.allgatherv.inter",
		"coll.alltoallv.intra", "coll.alltoallv.inter",
	} {
		if !seen[want] {
			t.Errorf("span %q not recorded by hierarchical v-collectives", want)
		}
	}
	w.Close()
}
