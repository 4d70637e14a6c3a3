package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Irregular ("v") collectives: per-peer counts and displacements, the
// building blocks of sparse alltoalls (MoE dispatch), variable-block
// gathers and ragged halo exchanges. Displacements are in units of the
// datatype extent (the MPI convention): block r of a buffer is
// buf.Slice(displs[r]*extent, dt.Span(counts[r])). A zero count
// moves no bytes and posts no message; both sides of a zero pair agree
// because the count vectors are part of the collective's signature
// (sender j and receiver i must satisfy scounts_j[i]*size(sdt) ==
// rcounts_i[j]*size(rdt), exactly as in MPI).

// checkVArgs rejects, before anything moves, count and displacement
// vectors of the wrong length, a negative count, and a block that does
// not lie inside buf: a fused kernel addresses its blocks by offset, so
// nothing further down would notice. An empty block has no memory and
// its displacement is never looked at.
func checkVArgs(what string, size int, buf mem.Buffer, dt *datatype.Datatype, counts, displs []int) {
	if len(counts) != size || len(displs) != size {
		panic(fmt.Sprintf("mpi: %s wants %d counts and displacements, got %d and %d",
			what, size, len(counts), len(displs)))
	}
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("mpi: %s negative count", what))
		}
		if c > 0 && (displs[i] < 0 || int64(displs[i])*dt.Extent()+dt.Span(c) > buf.Len()) {
			panic(fmt.Sprintf("mpi: %s block %d (count %d, displ %d) outside buffer of %d bytes",
				what, i, c, displs[i], buf.Len()))
		}
	}
}

// vslot returns block r of an irregular buffer: counts[r] elements of
// dt starting displs[r] extents from the buffer origin.
func vslot(buf mem.Buffer, dt *datatype.Datatype, count, displ int) mem.Buffer {
	return buf.Slice(int64(displ)*dt.Extent(), dt.Span(count))
}

// Alltoallv exchanges scounts[j] elements of sdt (at sdispls[j]) with
// every rank j, receiving rcounts[i] elements of rdt (at rdispls[i])
// from every rank i. Topology-aware worlds aggregate the irregular
// node-pair traffic at per-node leaders (hvcoll.go); otherwise the flat
// pairwise exchange runs, skipping zero-count pairs entirely.
func (m *Rank) Alltoallv(sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	checkVArgs("Alltoallv", m.Size(), sendBuf, sdt, scounts, sdispls)
	checkVArgs("Alltoallv", m.Size(), recvBuf, rdt, rcounts, rdispls)
	tag := m.tagBlock(m.alltoallvTags())
	if m.hierOn() {
		m.hierAlltoallv(m.p, tag, sendBuf, scounts, sdispls, sdt, recvBuf, rcounts, rdispls, rdt)
		return
	}
	m.exchangeAll(m.p, "Alltoallv", m.worldComm(), vectorView(sendBuf, sdt, scounts, sdispls), vectorView(recvBuf, rdt, rcounts, rdispls), tag)
}

// Allgatherv gathers counts[r] elements of dt from every rank r (read
// from its own block of buf) into every rank's buf at displs[r]. The
// count and displacement vectors are global knowledge — every rank
// passes the same ones — so zero blocks are skipped symmetrically: a
// zero block is simply not sent around the ring, and the neighbour —
// holding the same count vector — does not post for it.
func (m *Rank) Allgatherv(buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	checkVArgs("Allgatherv", m.Size(), buf, dt, counts, displs)
	m.allgatherv(m.p, m.tagBlock(m.allgatherTags()), buf, counts, displs, dt)
}

func (m *Rank) allgatherv(p *sim.Proc, tag int, buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	if m.hierOn() {
		m.hierAllgatherv(p, allgathervPhases, tag, buf, counts, displs, dt)
		return
	}
	m.ringAllgather(p, "Allgatherv", m.worldComm(), vectorView(buf, dt, counts, displs), tag)
}
