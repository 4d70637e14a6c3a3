package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Group is an ordered subset of the world's ranks with its own
// collective operations — the communicator-like handle the application
// workload layer (internal/workload) schedules jobs on. Two co-scheduled
// jobs on one cluster each get a Group over their own ranks, so a job's
// barriers and allreduces never synchronize (or cross-match) with the
// other job's: every group operation is built from point-to-point
// messages between group members only, tagged out of a per-group tag
// block.
//
// Group algorithms are deliberately *always* the group-local ones, even
// when the group spans the whole world — a job measured alone and the
// same job measured against a co-scheduled neighbour must run the exact
// same schedule, so the difference between the two runs is pure fabric
// contention (the per-job slowdown the interference studies report),
// never an algorithm switch.
type Group struct {
	w     *World
	id    int
	ranks []int // global ranks, group order
	local []int // global rank -> local index, -1 for non-members
	seq   []int64
}

// Group tag blocks sit above the world-collective tag space
// (collTagBase + collSeq): each group owns groupTagSpan tags starting at
// groupTagBase + id*groupTagSpan, and members advance the group's
// sequence identically per operation, exactly like collSeq.
const (
	groupTagBase = 1 << 24
	groupTagSpan = 1 << 20
)

// AllreduceAlg selects the group allreduce schedule.
type AllreduceAlg int

// Allreduce algorithms: the bandwidth-optimal ring
// (reduce-scatter + allgather, the schedule ML frameworks use for large
// fused gradient buckets) and the latency-optimal binomial tree
// (reduce to the group root + broadcast).
const (
	AllreduceRing AllreduceAlg = iota
	AllreduceTree
)

func (a AllreduceAlg) String() string {
	if a == AllreduceRing {
		return "ring"
	}
	return "tree"
}

// NewGroup builds a group over the given global ranks (in group order).
// Ranks must be in range and distinct. Call before Run, once per job,
// and share the handle across the group's ranks.
func (w *World) NewGroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("mpi: empty group")
	}
	g := &Group{
		w:     w,
		id:    w.groupSeq,
		ranks: append([]int(nil), ranks...),
		local: make([]int, len(w.ranks)),
		seq:   make([]int64, len(ranks)),
	}
	w.groupSeq++
	for i := range g.local {
		g.local[i] = -1
	}
	for lr, r := range ranks {
		if r < 0 || r >= len(w.ranks) {
			panic(fmt.Sprintf("mpi: group rank %d out of range", r))
		}
		if g.local[r] >= 0 {
			panic(fmt.Sprintf("mpi: duplicate group rank %d", r))
		}
		g.local[r] = lr
	}
	return g
}

// Size returns the number of group members.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the group's global ranks in group order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Contains reports whether global rank r is a member.
func (g *Group) Contains(r int) bool { return r >= 0 && r < len(g.local) && g.local[r] >= 0 }

// LocalRank returns m's index within the group; m must be a member.
func (g *Group) LocalRank(m *Rank) int {
	lr := g.local[m.rank]
	if lr < 0 {
		panic(fmt.Sprintf("mpi: rank %d is not in the group", m.rank))
	}
	return lr
}

// tagBlock reserves n consecutive tags from the group's block. Every
// member must reserve the same budget per operation (budgets depend only
// on group and world size), mirroring the world collSeq discipline.
func (g *Group) tagBlock(lr, n int) int {
	t := groupTagBase + g.id*groupTagSpan + int(g.seq[lr])
	g.seq[lr] += int64(n)
	if g.seq[lr] > groupTagSpan {
		panic("mpi: group tag space exhausted")
	}
	return t
}

// barrierRounds is ceil(log2(size)), the dissemination round count.
func barrierRounds(size int) int {
	n := 0
	for k := 1; k < size; k <<= 1 {
		n++
	}
	return n
}

// Barrier blocks until every group member has entered it
// (dissemination algorithm over point-to-point token messages; only
// group traffic, so two jobs' barriers are fully independent).
func (g *Group) Barrier(m *Rank) {
	c := g.comm(m)
	m.dissemination(&m.proc, "group Barrier", c, g.tagBlock(c.me, barrierRounds(c.n)))
}

// Allreduce combines count elements of dt (a contiguous single-primitive
// layout, as for Reduce) from every member's sendBuf into every member's
// recvBuf. The ring algorithm is reduce-scatter + allgather around the
// group ring; the tree algorithm is a binomial reduce to the group root
// followed by a binomial broadcast. Both run entirely on group-member
// point-to-point traffic.
func (g *Group) Allreduce(m *Rank, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, alg AllreduceAlg) {
	prim := reducePrim(dt)
	c := g.comm(m)
	p := &m.proc
	switch alg {
	case AllreduceRing:
		tag := g.tagBlock(c.me, 2*c.n)
		g.allreduceRing(m, p, c, tag, sendBuf, recvBuf, dt, count, prim, op)
	case AllreduceTree:
		// Binomial reduce into the group root's recvBuf, then binomial
		// broadcast of the result. Every member accumulates in its own
		// recvBuf (valid everywhere for an allreduce), so no staging is
		// needed beyond reduceTree's internal receive buffer.
		tag := g.tagBlock(c.me, m.Size()+1)
		acc := m.accumulator(p, sendBuf, recvBuf, dt, count, true)
		m.reduceTree(p, "group Allreduce", c, 0, acc, dt, count, prim, op, tag)
		m.bcastTree(p, "group Allreduce", c, 0, acc, dt, count, tag+m.Size())
	default:
		panic("mpi: unknown allreduce algorithm")
	}
}

// chunkOff returns the byte offset of ring chunk c when n bytes of
// 8-byte words are split into size near-equal chunks.
func chunkOff(n int64, size, c int) int64 {
	words := n / 8
	return (words * int64(c) / int64(size)) * 8
}

// allreduceRing: reduce-scatter around the ring (after size-1 steps,
// member lr owns the fully combined chunk (lr+1) mod size), then an
// allgather ring redistributes the combined chunks. Chunk boundaries
// are 8-byte aligned; empty chunks (count < group size) are elided
// symmetrically on both sides.
func (g *Group) allreduceRing(m *Rank, p *sim.Proc, c comm, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op) {
	size := c.n
	n := int64(count) * dt.Size()
	m.localCopy(p, sendBuf, dt, count, recvBuf.Slice(0, n), dt, count)
	if size == 1 || n == 0 {
		return
	}

	// Chunk i is words [chunkOff(i), chunkOff(i+1)) of recvBuf.
	base := datatype.Float64
	if prim == datatype.PrimInt64 {
		base = datatype.Int64
	}
	chunk := func(i int) (mem.Buffer, *datatype.Datatype, int) {
		i %= size
		lo, hi := chunkOff(n, size, i), chunkOff(n, size, i+1)
		return recvBuf.Slice(lo, hi-lo), base, int((hi - lo) / 8)
	}

	// Receive staging for the combine phase, in the accumulator's
	// location class.
	maxChunk := int64(0)
	for i := 0; i < size; i++ {
		if w := chunkOff(n, size, i+1) - chunkOff(n, size, i); w > maxChunk {
			maxChunk = w
		}
	}
	tmp := m.take(recvBuf.Space(), maxChunk)

	// Reduce-scatter.
	for s := 0; s < size-1; s++ {
		sbuf, sdt, scount := chunk(c.me - s + size)
		rbuf, rdt, rcount := chunk(c.me - s - 1 + size)
		in := tmp.Slice(0, int64(rcount)*8)
		m.batch(c).send(p, sbuf, sdt, scount, (c.me+1)%size, tag+s).
			recv(in, rdt, rcount, (c.me-1+size)%size, tag+s).wait(p, "group Allreduce")
		if rcount > 0 {
			m.combine(p, rbuf, in, prim, op)
		}
	}

	// Allgather of the combined chunks: member i now owns chunk i+1.
	m.ringAllgather(p, "group Allreduce", c, func(i int) (mem.Buffer, *datatype.Datatype, int) { return chunk(i + 1) }, tag+size-1)
	m.give(tmp)
}

// Alltoallv exchanges scounts[j] elements of sdt (at sdispls[j], in
// extent units) with every group member j, receiving rcounts[i] at
// rdispls[i] from member i — the group-scoped counterpart of the world
// Alltoallv, indices in group order. Zero-count pairs move no bytes and
// post no messages; the count matrices are part of the collective's
// signature as in the world variant.
func (g *Group) Alltoallv(m *Rank, sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	c := g.comm(m)
	checkVArgs("group Alltoallv", c.n, sendBuf, sdt, scounts, sdispls)
	checkVArgs("group Alltoallv", c.n, recvBuf, rdt, rcounts, rdispls)
	tag := g.tagBlock(c.me, 1)
	send, recv := vectorView(sendBuf, sdt, scounts, sdispls), vectorView(recvBuf, rdt, rcounts, rdispls)
	m.exchangeAll(&m.proc, "group Alltoallv", c, send, recv, tag)
}

// SendRecvLocal exchanges (count, dt) messages with two group members
// given by their local indices, drawing the tag from the group block so
// neighbouring phases never cross-match.
func (g *Group) SendRecvLocal(m *Rank, sendBuf mem.Buffer, sdt *datatype.Datatype, scount, destLocal int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount, srcLocal int) {
	tag := g.tagBlock(g.LocalRank(m), 1)
	m.SendRecv(sendBuf, sdt, scount, g.ranks[destLocal], tag, recvBuf, rdt, rcount, g.ranks[srcLocal], tag)
}

// NeighborAlltoallw is the neighbourhood exchange (MPI_Neighbor_alltoallw
// over the graph the two lists spell out): block i of sends goes to
// group member sends[i].Peer, block j of recvs is filled by member
// recvs[j].Peer. Every block has its own buffer, datatype and count — a
// halo exchange's low and high faces are different subarrays of one
// array — and the blocks exchanged with one peer match in list order,
// so a peer may appear on a side more than once (a two-rank dimension
// has the same neighbour on both sides). A zero-count block moves no
// bytes and posts no message; the lists are part of the collective's
// signature as the count vectors of Alltoallv are.
func (g *Group) NeighborAlltoallw(m *Rank, sends, recvs []Neighbor) {
	const what = "group NeighborAlltoallw"
	c := g.comm(m)
	checkNeighbors(what, "send", c.n, sends)
	checkNeighbors(what, "recv", c.n, recvs)
	m.neighbours(&m.proc, what, c, sends, recvs, g.tagBlock(c.me, 1))
}

// checkNeighbors rejects, before anything moves, a block whose peer is
// not a group member, whose count is negative, that has no datatype, or
// that does not lie inside its buffer (see inside). An empty block
// is never looked at.
func checkNeighbors(what, side string, size int, blocks []Neighbor) {
	for i, b := range blocks {
		var why string
		switch {
		case b.Count == 0:
			continue
		case b.Count < 0:
			why = "has a negative count"
		case b.Peer < 0 || b.Peer >= size:
			why = fmt.Sprintf("names a peer outside the group of %d", size)
		case b.Dt == nil:
			why = "has no datatype"
		case !inside(b.Buf, 0, b.Dt, b.Count):
			why = fmt.Sprintf("lies outside its buffer of %d bytes", b.Buf.Len())
		default:
			continue
		}
		panic(fmt.Sprintf("mpi: %s %s block %d (count %d, peer %d) %s", what, side, i, b.Count, b.Peer, why))
	}
}
