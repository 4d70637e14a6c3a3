package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// In-network (SHARP-style) Reduce/Allreduce: instead of a second
// binomial tree over the per-node leaders on the IB tier, each leader
// hands its node's partial to the fat-tree switches, whose ALUs fold
// the partials on the way up and multicast the result back down
// (ib.Fabric.SwitchReduce). The combine association (node partials
// folded in node order at the switch) differs from both the flat and
// the hierarchical tree, so it is the default only where that cannot
// show: Int64, or OpMax. Float64 sums stay on the host tree.

// switchOn reports whether a Reduce (all false) or Allreduce (all true)
// of dt under op runs at the switches: the fabric has switch ALUs (a
// spine tier), the blocked layout spans more than one node, the world
// does not force the flat algorithms, and the combine is exact at the
// switch. A Reduce over exactly two node leaders stays on the host
// tree, where it is one message; an Allreduce there still saves the
// broadcast back.
func (m *Rank) switchOn(dt *datatype.Datatype, op Op, all bool) bool {
	w := m.w
	if w.tun.coll == CollFlat || w.hier.nodes < 2 || !w.fabric.Params().Topo.Hierarchical() {
		return false
	}
	if !all && w.hier.nodes == 2 {
		return false
	}
	return op == OpMax || reducePrim(dt) == datatype.PrimInt64
}

// fold names a combine the switch ALUs run exactly.
type fold struct {
	prim datatype.Primitive
	op   Op
}

// switchFolds are the switch ALUs' combines, made once so a reduction
// passes one without allocating.
var switchFolds = map[fold]func(acc, in []byte){
	{datatype.PrimInt64, OpSum}:   func(a, b []byte) { combineBytes(a, b, datatype.PrimInt64, OpSum) },
	{datatype.PrimInt64, OpMax}:   func(a, b []byte) { combineBytes(a, b, datatype.PrimInt64, OpMax) },
	{datatype.PrimFloat64, OpMax}: func(a, b []byte) { combineBytes(a, b, datatype.PrimFloat64, OpMax) },
}

// switchReduce: binomial reduction to each node's acting leader over
// shared memory, one in-network fold across the leaders' switches, and
// — for Allreduce (allTag >= 0) — an intra-node broadcast of the
// multicast result. allTag < 0 gives Reduce semantics: only root keeps
// the result (the switch still multicasts to every leader; non-root
// leaders drop the bytes without unpacking).
func (m *Rank) switchReduce(p *sim.Proc, tag int, sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root, allTag int) {
	prim := reducePrim(dt)
	n := int64(count) * dt.Size()
	node, leaders := m.nodeComm(), m.leaderComm(root)
	lead := leaders.rank(leaders.me)
	all := allTag >= 0
	keep := all || m.rank == root

	acc := m.accumulator(p, sendBuf, recvBuf, dt, count, keep)
	sp := p.BeginBytes("coll.reduce.intra", n)
	m.reduceTree(p, "Reduce", node, lead-node.base, acc, dt, count, prim, op, tag)
	sp.End()

	if m.rank == lead {
		sp := p.BeginBytes("coll.reduce.sharp", n)
		host := m.take(m.space, n)
		m.packToHost(p, acc, dt, count, host)
		m.w.fabric.SwitchReduce(p, tag, m.w.hcas[:leaders.n], leaders.me, host, switchFolds[fold{prim, op}])
		if keep {
			m.unpackFromHost(p, acc, dt, count, host)
		}
		m.give(host)
		sp.End()
	}
	if all {
		sp := p.BeginBytes("coll.bcast.intra", n)
		m.bcastTree(p, "Allreduce", node, lead-node.base, acc, dt, count, allTag)
		sp.End()
	}
	if !keep {
		m.give(acc)
	}
}
