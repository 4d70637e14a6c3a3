package mpi

import (
	"gpuddt/internal/core"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Topology-aware collectives. On a blocked multi-node layout (see
// detectHierarchy) each collective runs in phases: an intra-node phase
// over the shared-memory/PCIe channels, and an inter-node phase in
// which one leader per node (the node's first rank, or the collective
// root acting for its own node) carries the aggregated traffic over
// the IB tier. Each phase is one of the algorithms of coll.go run over
// the node or the leader communicator; what lives here is the stage
// geometry, the Hvector views over it and the phase spans. The same
// algorithms over the whole world are the fallback for every other
// layout and produce byte-identical buffers; Tuning{Collectives:
// CollFlat} forces them for differential testing. Allgather has no
// schedule of its own: an eager-sized slot takes hierAllgatherv's with
// equal counts, a rendezvous-sized one the flat ring.
//
// Tag discipline: every hierarchical phase draws its tags from the
// block the caller reserved with tagBlock, and every rank reserves the
// same amount at call time (the dispatch decision is a world-level
// property), so collective and point-to-point traffic can interleave
// freely — including several nonblocking collectives in flight at once.

// hierOn reports whether this world's collectives run the hierarchical
// algorithms.
func (m *Rank) hierOn() bool { return m.w.TopologyAware() }

// phases names a hierarchical schedule's collective: in a failure, and
// its phase spans on the timeline.
type phases struct{ what, intra, inter string }

var (
	allgatherPhases  = phases{"Allgather", "coll.allgather.intra", "coll.allgather.inter"}
	allgathervPhases = phases{"Allgatherv", "coll.allgatherv.intra", "coll.allgatherv.inter"}
)

// hierBcast: binomial over the per-node leaders on the IB tier, then
// binomial within each node over shared memory. A leader serves both
// trees — it receives or sends over the first and sends over the
// second, two launches at the least — so it holds the block across
// them; the trees then see bytes in host memory and hold nothing more.
func (m *Rank) hierBcast(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	node, leaders := m.nodeComm(), m.leaderComm(root)
	lead := leaders.rank(leaders.me)
	packed := int64(count) * dt.Size()
	var st *stage
	if m.rank == lead {
		st, buf, dt, count = m.holdBlock(2, buf, dt, count)
		if m.rank == root {
			m.packHeld(p, st)
		}
		sp := p.BeginBytes("coll.bcast.inter", packed)
		m.bcastTree(p, "Bcast", leaders, leaders.act, buf, dt, count, tag)
		sp.End()
	}
	sp := p.BeginBytes("coll.bcast.intra", packed)
	m.bcastTree(p, "Bcast", node, lead-node.base, buf, dt, count, tag+1)
	if m.rank != root {
		m.unpackHeld(p, st)
	}
	m.release(st)
	sp.End()
}

// hierAllgatherv: every rank knows the full count vector (the MPI
// signature), so no metadata has to move. The node's blocks are packed
// into the leader's wire-format stage (prefix-sum offsets, rank order),
// leaders ring whole node aggregates of that stage over the IB tier,
// each leader broadcasts the assembled stage within its node, and every
// rank unpacks the remote blocks into its own buffer at displs[r].
func (m *Rank) hierAllgatherv(p *sim.Proc, ph phases, tag int, buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) {
	size := m.Size()
	node, leaders := m.nodeComm(), m.leaderComm(-1)
	rpn, nnodes, lead := node.n, leaders.n, node.base

	// Packed bytes and stage offset per rank block; node aggregates are
	// contiguous in the stage because ranks are blocked onto nodes.
	sc := m.takeScratch()
	defer m.giveScratch(sc)
	B, off := sc.ints(0, size), sc.ints(1, size+1)
	off[0] = 0
	for r := 0; r < size; r++ {
		B[r] = counts[r] * int(dt.Size())
		off[r+1] = off[r] + B[r]
	}
	total := int64(off[size])
	if total == 0 {
		return
	}
	nodeOff, nodeBytes := sc.ints(2, nnodes), sc.ints(3, nnodes)
	for nd := 0; nd < nnodes; nd++ {
		nodeOff[nd] = off[nd*rpn]
		nodeBytes[nd] = off[(nd+1)*rpn] - off[nd*rpn]
	}

	tagIn := tag
	tagRing := tag + rpn
	tagOut := tagRing + nnodes

	slots := vectorView(buf, dt, counts, displs)
	stage := m.take(m.space, total)

	// Phase 1: assemble the node's blocks, already packed, at the
	// leader. Members send (dt, count); the leader receives straight
	// into wire format under the equal-packed-bytes signature rule,
	// packing its own block while they are in flight.
	sp := p.BeginBytes(ph.intra, int64(nodeBytes[leaders.me]))
	own, _, _ := slots(m.rank)
	m.linearGather(p, ph.what, node, 0, own, dt, counts[m.rank], vectorView(stage, datatype.Byte, B[lead:], off[lead:]), tagIn,
		func() {
			m.packBlocks(p, []core.Block{{Data: own, Dt: dt, Count: counts[m.rank], Pos: int64(off[m.rank])}}, stage)
		})
	sp.End()

	// Phase 2: leaders ring whole node aggregates of the packed stage;
	// an all-zero node simply sits the step out on both sides.
	if node.me == 0 && nnodes > 1 {
		sp := p.BeginBytes(ph.inter, total-int64(nodeBytes[leaders.me]))
		m.ringAllgather(p, ph.what, leaders, vectorView(stage, datatype.Byte, nodeBytes, nodeOff), tagRing)
		sp.End()
	}

	// Phase 3: broadcast the assembled wire-format stage within the
	// node; every rank unpacks the remote blocks into place (its own
	// block is already there).
	sp = p.BeginBytes(ph.intra, total)
	m.bcastTree(p, ph.what, node, 0, stage.Slice(0, total), datatype.Byte, int(total), tagOut)
	m.unpackBlocks(p, sc.blocksOf(slots, size, off, m.rank), stage)
	sp.End()
	m.give(stage)
}

// hierAlltoall aggregates each node's outgoing traffic at its leader
// and exchanges one large message per node pair over the IB tier —
// nodes² wire messages instead of the flat algorithm's ranks² — at the
// cost of staging the node's traffic through leader host scratch.
//
// With P ranks, R ranks per node and B packed bytes per (src, dst)
// pair, the leader's send stage holds its members' packed send buffers
// back to back (member li at offset li*P*B); the block member li sends
// to global rank d*R+di sits at li*P*B + (d*R+di)*B, so the traffic
// bound for node d is an Hvector of R blocks of R*B bytes with stride
// P*B. The receive stage is source-major — src node s's block at
// s*R*R*B, inside it src member li at li*R*B, dest member di at di*B —
// so dest member di's column is an Hvector of P blocks of B bytes with
// stride R*B, which unpacks straight into (rdt, rcount*P) in rank
// order.
func (m *Rank) hierAlltoall(p *sim.Proc, tag int, sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) {
	size := m.Size()
	node, leaders := m.nodeComm(), m.leaderComm(-1)
	rpn, nnodes := node.n, leaders.n
	B := int64(scount) * sdt.Size()
	P := int64(size)

	tagIn := tag
	tagInter := tag + rpn
	tagOut := tag + rpn + 1
	scatter := Sched{Alg: Scatter, N: rpn, Me: node.me}

	if node.me != 0 {
		// Members hand their whole send buffer to the leader and receive
		// their column of the node's inbound traffic back; both transfers
		// ride the signature rule that any layout may be received as the
		// same number of packed bytes.
		sp := p.BeginBytes("coll.alltoall.intra", B*P)
		m.linearGather(p, "Alltoall", node, 0, sendBuf, sdt, scount*size, nil, tagIn, nil)
		m.walk(p, "Alltoall", node, scatter, nil, one(recvBuf, rdt, rcount*size), tagOut, nil)
		sp.End()
		return
	}

	sendStage := m.take(m.space, int64(rpn)*P*B)
	recvStage := m.take(m.space, P*int64(rpn)*B)

	// Phase 1: collect the members' packed send buffers, packing the
	// leader's own while they are in flight.
	sp := p.BeginBytes("coll.alltoall.intra", B*P*int64(rpn))
	m.linearGather(p, "Alltoall", node, 0, mem.Buffer{}, nil, 0, uniformView(sendStage, datatype.Byte, int(P*B)), tagIn, func() {
		m.localCopy(p, sendBuf, sdt, scount*size, sendStage.Slice(0, P*B), datatype.Byte, int(P*B))
	})
	sp.End()

	// Phase 2: pairwise exchange of per-node aggregates. Every node's
	// traffic has the same layout, so one datatype describes them all.
	views := m.w.alltoallViews(B)
	nodeBlk := int64(rpn) * int64(rpn) * B
	nodeSpan := int64(rpn-1)*P*B + int64(rpn)*B
	sendTo := func(d int) (mem.Buffer, *datatype.Datatype, int) {
		return sendStage.Slice(int64(d)*int64(rpn)*B, nodeSpan), views.node, 1
	}
	inbound := uniformView(recvStage, datatype.Byte, int(nodeBlk))
	sp = p.BeginBytes("coll.alltoall.inter", nodeBlk*int64(nnodes-1))
	m.exchangeAll(p, "Alltoall", leaders, sendTo, inbound, tagInter)
	sp.End()

	// Phase 3: hand each member its column of the receive stage, every
	// column in flight at once while the leader copies its own.
	colSpan := (P-1)*int64(rpn)*B + B
	col := func(di int) (mem.Buffer, *datatype.Datatype, int) {
		return recvStage.Slice(int64(di)*B, colSpan), views.col, 1
	}
	sp = p.BeginBytes("coll.alltoall.intra", B*P*int64(rpn))
	m.walk(p, "Alltoall", node, scatter, col, nil, tagOut, func() {
		src, hv, _ := col(0)
		m.localCopy(p, src, hv, 1, recvBuf, rdt, rcount*size)
	})
	sp.End()

	m.give(recvStage)
	m.give(sendStage)
}

// alltoallViews are hierAlltoall's two layouts for B packed bytes per
// rank pair: the traffic of a node in the leader's send stage, and a
// member's column of its receive stage.
type alltoallViews struct{ node, col *datatype.Datatype }

// alltoallViews returns the world's views for B bytes per pair, built
// the first time a hierarchical Alltoall of that size runs. Both are
// single-level Hvectors of Byte, which the vector kernel moves: which
// call built them changes no cost.
func (w *World) alltoallViews(B int64) alltoallViews {
	if v, ok := w.a2aViews[B]; ok {
		return v
	}
	rpn, P := int64(w.hier.rpn), int64(len(w.ranks))
	v := alltoallViews{
		node: datatype.Hvector(int(rpn), int(rpn*B), P*B, datatype.Byte),
		col:  datatype.Hvector(int(P), int(B), rpn*B, datatype.Byte),
	}
	if w.a2aViews == nil {
		w.a2aViews = make(map[int64]alltoallViews)
	}
	w.a2aViews[B] = v
	return v
}

// hierReduce: binomial reduction to the leader within each node, then
// binomial over the acting leaders to the root. The combine association
// differs from the flat tree — exact for Int64 and OpMax; Float64 sums
// may round differently, as on any real topology-aware MPI.
func (m *Rank) hierReduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) {
	prim := reducePrim(dt)
	n := int64(count) * dt.Size()
	node, leaders := m.nodeComm(), m.leaderComm(root)
	lead := leaders.rank(leaders.me)

	acc := m.accumulator(p, sendBuf, recvBuf, dt, count, m.rank == root)
	sp := p.BeginBytes("coll.reduce.intra", n)
	m.reduceTree(p, "Reduce", node, lead-node.base, acc, dt, count, prim, op, tag)
	sp.End()
	if m.rank == lead {
		sp := p.BeginBytes("coll.reduce.inter", n)
		m.reduceTree(p, "Reduce", leaders, leaders.act, acc, dt, count, prim, op, tag+m.Size())
		sp.End()
	}
	if m.rank != root {
		m.give(acc)
	}
}
