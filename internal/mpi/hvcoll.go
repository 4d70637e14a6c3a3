package mpi

import (
	"encoding/binary"

	"gpuddt/internal/core"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Hierarchical irregular collectives. The node-pair aggregation of
// hcoll.go extends to per-peer counts by staging packed wire-format
// bytes through leader host scratch: blocks are irregular, so the
// stage layout is driven by prefix sums of the packed block sizes
// instead of the fixed strides of the regular algorithms, and the
// node-pair messages become Hindexed views over the stage. Leader
// election and the coll.*.intra/inter span discipline are unchanged.

// phases names a hierarchical schedule's collective: in a failure, and
// its phase spans on the timeline.
type phases struct{ what, intra, inter string }

var (
	allgatherPhases  = phases{"Allgather", "coll.allgather.intra", "coll.allgather.inter"}
	allgathervPhases = phases{"Allgatherv", "coll.allgatherv.intra", "coll.allgatherv.inter"}
)

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
	B := make([]int, size)
	off := make([]int, size+1)
	for r := 0; r < size; r++ {
		B[r] = counts[r] * int(dt.Size())
		off[r+1] = off[r] + B[r]
	}
	total := int64(off[size])
	if total == 0 {
		return
	}
	nodeOff := make([]int, nnodes)
	nodeBytes := make([]int, nnodes)
	for nd := 0; nd < nnodes; nd++ {
		nodeOff[nd] = off[nd*rpn]
		nodeBytes[nd] = off[(nd+1)*rpn] - off[nd*rpn]
	}

	tagIn := tag
	tagRing := tag + rpn
	tagOut := tagRing + nnodes

	slots := vectorView(buf, dt, counts, displs)
	stage := m.scratch(total)

	// Phase 1: assemble the node's blocks, already packed, at the
	// leader. Members send (dt, count); the leader receives straight
	// into wire format under the equal-packed-bytes signature rule,
	// packing its own block while they are in flight.
	sp := p.BeginBytes(ph.intra, int64(nodeBytes[leaders.me]))
	var own mem.Buffer
	if node.me != 0 {
		own, _, _ = slots(m.rank)
	}
	m.linearGather(p, ph.what, node, 0, own, dt, counts[m.rank], vectorView(stage, datatype.Byte, B[lead:], off[lead:]), tagIn,
		func() {
			buf, dt, count := slots(m.rank)
			m.packBlocks(p, []core.Block{{Data: buf, Dt: dt, Count: count, Pos: int64(off[m.rank])}}, stage)
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
	m.unpackBlocks(p, blocksOf(slots, size, off, m.rank), stage)
	sp.End()
	m.freeScratch(stage)
}

// hierAlltoallv aggregates irregular node-pair traffic at the leaders.
// Unlike Allgatherv, each rank only knows its own count vectors, so the
// schedule opens with a metadata phase: every member hands its per-peer
// send/recv byte vectors to the leader, which assembles the node's
// send-byte matrix SB[member][dest] and recv-byte matrix
// RB[member][src]. Members then pack their outgoing blocks into one
// wire-format stream each; the leader concatenates the streams, carves
// the per-destination-node message out of them as an Hindexed view (one
// run per member — a member's blocks for one node are consecutive in
// its stream), and exchanges node pairs over the IB tier. Inbound node
// blocks land source-major; each destination member's column is again
// an Hindexed view (one block per source rank), handed back as a single
// packed stream the member unpacks at its own displacements.
func (m *Rank) hierAlltoallv(p *sim.Proc, tag int, sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) {
	size := m.Size()
	node, leaders := m.nodeComm(), m.leaderComm(-1)
	rpn, nnodes, lead, myNode := node.n, leaders.n, node.base, leaders.me

	// This rank's packed byte vectors and their prefix sums.
	sB, sOff := make([]int, size), make([]int, size+1)
	rB, rOff := make([]int, size), make([]int, size+1)
	for r := 0; r < size; r++ {
		sB[r] = scounts[r] * int(sdt.Size())
		rB[r] = rcounts[r] * int(rdt.Size())
		sOff[r+1] = sOff[r] + sB[r]
		rOff[r+1] = rOff[r] + rB[r]
	}
	sTot, rTot := int64(sOff[size]), int64(rOff[size])

	tagMeta := tag
	tagIn := tag + rpn
	tagInter := tag + 2*rpn
	tagOut := tag + 2*rpn + 1

	sends := vectorView(sendBuf, sdt, scounts, sdispls)
	recvs := vectorView(recvBuf, rdt, rcounts, rdispls)
	// Metadata: 2*size little-endian int64s (send bytes, recv bytes).
	metaLen := 16 * size

	if node.me != 0 {
		sp := p.BeginBytes("coll.alltoallv.intra", sTot+rTot)
		meta := m.scratch(int64(metaLen))
		mb := meta.Bytes()
		for r := 0; r < size; r++ {
			binary.LittleEndian.PutUint64(mb[8*r:], uint64(sB[r]))
			binary.LittleEndian.PutUint64(mb[8*(size+r):], uint64(rB[r]))
		}
		m.linearGather(p, "Alltoallv", node, 0, meta.Slice(0, int64(metaLen)), datatype.Byte, metaLen, nil, tagMeta, nil)
		m.freeScratch(meta)

		// Pack the outgoing blocks into one wire-format stream and hand
		// it to the leader.
		if sTot > 0 {
			pack := m.scratch(sTot)
			m.packBlocks(p, blocksOf(sends, size, sOff, -1), pack)
			m.linearGather(p, "Alltoallv", node, 0, pack.Slice(0, sTot), datatype.Byte, int(sTot), nil, tagIn, nil)
			m.freeScratch(pack)
		}
		sp.End()

		// Receive the inbound stream (source-rank order) and unpack it.
		if rTot > 0 {
			sp := p.BeginBytes("coll.alltoallv.intra", rTot)
			rstage := m.scratch(rTot)
			m.recvBlock(p, "Alltoallv", rstage.Slice(0, rTot), datatype.Byte, int(rTot), lead, tagOut+node.me)
			m.unpackBlocks(p, blocksOf(recvs, size, rOff, -1), rstage)
			m.freeScratch(rstage)
			sp.End()
		}
		return
	}

	// Leader. Phase 0: collect the members' byte vectors.
	SB := make([][]int, rpn) // SB[i][d]: bytes member i sends to rank d
	RB := make([][]int, rpn) // RB[i][s]: bytes member i receives from rank s
	SB[0], RB[0] = sB, rB
	sp := p.BeginBytes("coll.alltoallv.intra", 0)
	metaIn := m.scratch(int64(metaLen) * int64(rpn))
	metas := uniformView(metaIn, datatype.Byte, metaLen)
	m.linearGather(p, "Alltoallv", node, 0, mem.Buffer{}, nil, 0, metas, tagMeta, nil)
	for i := 1; i < rpn; i++ {
		blk, _, _ := metas(i)
		mb := blk.Bytes()
		SB[i] = make([]int, size)
		RB[i] = make([]int, size)
		for r := 0; r < size; r++ {
			SB[i][r] = int(binary.LittleEndian.Uint64(mb[8*r:]))
			RB[i][r] = int(binary.LittleEndian.Uint64(mb[8*(size+r):]))
		}
	}
	m.freeScratch(metaIn)

	// Stage geometry from the matrices. Send side: member i's stream at
	// memOff[i], inside it rank d's block at prefS[i][d]. Recv side:
	// source node S's aggregate at inNodeOff[S]; inside it source rank
	// s's row (its blocks for members 0..rpn-1, in member order) at
	// rowOff[s], block (s -> member di) at rowOff[s] + prefix of RB.
	prefS := make([][]int, rpn)
	memLen, memOff := make([]int, rpn), make([]int, rpn+1)
	for i := 0; i < rpn; i++ {
		prefS[i] = make([]int, size+1)
		for d := 0; d < size; d++ {
			prefS[i][d+1] = prefS[i][d] + SB[i][d]
		}
		memLen[i] = prefS[i][size]
		memOff[i+1] = memOff[i] + memLen[i]
	}
	nodeSendTot := int64(memOff[rpn])

	rowOff := make([]int, size+1) // rank s's row; its length is what s sends into this node
	for s := 0; s < size; s++ {
		rowOff[s+1] = rowOff[s]
		for di := 0; di < rpn; di++ {
			rowOff[s+1] += RB[di][s]
		}
	}
	nodeIn, inNodeOff := make([]int, nnodes), make([]int, nnodes)
	for nd := 0; nd < nnodes; nd++ {
		inNodeOff[nd] = rowOff[nd*rpn]
		nodeIn[nd] = rowOff[(nd+1)*rpn] - rowOff[nd*rpn]
	}
	nodeRecvTot := int64(rowOff[size])
	// inOff returns the recv-stage offset of block (src rank s -> dest
	// member di).
	inOff := func(s, di int) int64 {
		o := rowOff[s]
		for d := 0; d < di; d++ {
			o += RB[d][s]
		}
		return int64(o)
	}

	var sendStage, recvStage mem.Buffer
	if nodeSendTot > 0 {
		sendStage = m.scratch(nodeSendTot)
	}
	if nodeRecvTot > 0 {
		recvStage = m.scratch(nodeRecvTot)
	}

	// Phase 1: concatenate the members' packed streams, packing the
	// leader's own blocks while they are in flight.
	m.linearGather(p, "Alltoallv", node, 0, mem.Buffer{}, nil, 0, vectorView(sendStage, datatype.Byte, memLen, memOff), tagIn, func() {
		m.packBlocks(p, blocksOf(sends, size, prefS[0], -1), sendStage)
	})
	sp.End()

	// outView carves the node-pair message for destination node nd out
	// of the send stage: one run per member (its consecutive blocks for
	// nd's ranks), zero runs elided.
	outView := func(nd int) (mem.Buffer, *datatype.Datatype, int) {
		var bls []int
		var displs []int64
		for i := 0; i < rpn; i++ {
			if n := prefS[i][(nd+1)*rpn] - prefS[i][nd*rpn]; n > 0 {
				bls = append(bls, n)
				displs = append(displs, int64(memOff[i]+prefS[i][nd*rpn]))
			}
		}
		if bls == nil {
			return mem.Buffer{}, nil, 0
		}
		return sendStage, datatype.Hindexed(bls, displs, datatype.Byte), 1
	}
	inbound := vectorView(recvStage, datatype.Byte, nodeIn, inNodeOff)

	// Phase 2: node-pair exchange. Own node first, then the pairwise
	// schedule over the IB tier; zero-byte node pairs are skipped on
	// both sides (the sender knows from SB, the receiver from RB).
	m.copyBlock(p, myNode, outView, inbound)
	if nnodes > 1 {
		sp := p.BeginBytes("coll.alltoallv.inter", nodeRecvTot-int64(nodeIn[myNode]))
		m.pairwise(p, "Alltoallv", leaders, outView, inbound, tagInter)
		sp.End()
	}

	// Phase 3: hand each member its column — one block per source rank,
	// in rank order, which is exactly the member's unpack order — one
	// blocking send after the other.
	sp = p.BeginBytes("coll.alltoallv.intra", nodeRecvTot)
	for di := 1; di < rpn; di++ {
		var bls []int
		var displs []int64
		for s := 0; s < size; s++ {
			if RB[di][s] > 0 {
				bls = append(bls, RB[di][s])
				displs = append(displs, inOff(s, di))
			}
		}
		if bls != nil {
			m.sendOn(p, recvStage, datatype.Hindexed(bls, displs, datatype.Byte), 1, lead+di, tagOut+di)
		}
	}
	// The leader's own column unpacks straight into recvBuf.
	m.unpackBlocks(p, blocksOf(recvs, size, rowOff, -1), recvStage)
	sp.End()

	if recvStage.IsValid() {
		m.freeScratch(recvStage)
	}
	if sendStage.IsValid() {
		m.freeScratch(sendStage)
	}
}
