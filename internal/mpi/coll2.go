package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// The regular (uniform block) collectives: each entry point reserves
// its tag block and dispatches between the hierarchical schedule
// (hcoll.go) and the flat algorithm of coll.go over the whole world.

// Bcast broadcasts count elements of dt from root. Every rank's buf
// must describe the same signature. On a multi-node world with several
// ranks per node (blocked layout) the broadcast is hierarchical —
// binomial over one leader per node on the IB tier, then binomial
// within each node over the shared-memory tier; otherwise it is the
// flat binomial tree.
func (m *Rank) Bcast(buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	m.bcast(&m.proc, m.tagBlock(m.bcastTags()), buf, dt, count, root)
}

func (m *Rank) bcast(p *sim.Proc, tag int, buf mem.Buffer, dt *datatype.Datatype, count, root int) {
	if m.hierOn() && count > 0 {
		m.hierBcast(p, tag, buf, dt, count, root)
		return
	}
	m.bcastTree(p, "Bcast", m.worldComm(), root, buf, dt, count, tag)
}

// Allgather gathers each rank's count elements of dt (read from its slot
// of buf) into every rank's buf: buf must hold Size() consecutive
// (dt, count) slots, each starting at rank*count*extent. GPU-resident
// non-contiguous slots are packed and unpacked by the datatype engine on
// every hop. On a topology-aware world an eager-sized slot stays packed:
// each node's slots are packed into its leader's stage, the leaders ring
// whole node aggregates over the IB tier and broadcast the assembled
// stage within their nodes, and every rank unpacks it (hierAllgatherv
// with equal counts). A rendezvous-sized slot, whose hops pipeline pack
// with wire, and every other layout take the flat ring.
func (m *Rank) Allgather(buf mem.Buffer, dt *datatype.Datatype, count int) {
	tag := m.tagBlock(m.allgatherTags())
	if m.hierOn() && count > 0 && int64(count)*dt.Size() <= m.w.tun.eager {
		counts, displs := make([]int, m.Size()), make([]int, m.Size())
		for r := range counts {
			counts[r], displs[r] = count, r*count
		}
		m.hierAllgatherv(&m.proc, allgatherPhases, tag, buf, counts, displs, dt)
		return
	}
	m.ringAllgather(&m.proc, "Allgather", m.worldComm(), uniformView(buf, dt, count), tag)
}

// Alltoall exchanges slot j of every rank's sendBuf with slot i of rank
// j's recvBuf (the building block of distributed transposes and FFTs).
// Topology-aware worlds aggregate each node's traffic at its leader and
// exchange one large message per node pair over the IB tier instead of
// ranks-squared small ones; otherwise the flat pairwise exchange runs
// (see PairwisePeers).
func (m *Rank) Alltoall(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) {
	tag := m.tagBlock(m.alltoallTags())
	if B := int64(scount) * sdt.Size(); m.hierOn() && B > 0 && B == int64(rcount)*rdt.Size() {
		m.hierAlltoall(&m.proc, tag, sendBuf, sdt, scount, recvBuf, rdt, rcount)
		return
	}
	m.exchangeAll(&m.proc, "Alltoall", m.worldComm(), uniformView(sendBuf, sdt, scount), uniformView(recvBuf, rdt, rcount), tag)
}

// copyBlock moves block i of one view into block i of the other inside
// the rank: the caller's own block of an exchange, or one block into or
// out of a wire-format stage. An empty block costs nothing.
func (m *Rank) copyBlock(p *sim.Proc, i int, from, to view) {
	sbuf, sdt, scount := from(i)
	rbuf, rdt, rcount := to(i)
	m.localCopy(p, sbuf, sdt, scount, rbuf, rdt, rcount)
}

// localCopy moves (src, sdt, scount) into (dst, rdt, rcount) within the
// rank, through packed form: the engine that moves each side's bytes
// packs into a stage and unpacks from it. The stage is device memory on
// the rank's GPU when either side is device memory, else host scratch;
// the CPU cannot reach a device stage, so a host side crosses to it
// through host scratch. Each side is held to its whole packed size.
func (m *Rank) localCopy(p *sim.Proc, src mem.Buffer, sdt *datatype.Datatype, scount int,
	dst mem.Buffer, rdt *datatype.Datatype, rcount int) {
	packed := packedSize(sdt, scount)
	if capacity := int64(rcount) * rdt.Size(); packed > capacity {
		panic("mpi: local copy truncation")
	}
	if packed == 0 {
		return
	}
	// Contiguous-to-contiguous short cut.
	sw, sok := contigWindow(src, sdt, scount)
	dw, dok := contigWindow(dst, rdt, rcount)
	if sok && dok {
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, dw.Slice(0, packed), sw.Slice(0, packed))
		})
		return
	}
	space := m.space
	if src.Kind() == mem.Device || dst.Kind() == mem.Device {
		space = m.ctx.Node().GPU(m.place.GPU).Mem()
	}
	stage := m.take(space, packed)
	if stage.Kind() == mem.Device && src.Kind() == mem.Host {
		hs := m.take(m.space, packed)
		m.EngineFor(src).Pack(p, src, sdt, scount, hs)
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, stage, hs)
		})
		m.give(hs)
	} else {
		m.EngineFor(src).Pack(p, src, sdt, scount, stage)
	}
	if stage.Kind() == mem.Device && dst.Kind() == mem.Host {
		hs := m.take(m.space, packed)
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, hs, stage)
		})
		m.EngineFor(dst).Unpack(p, dst, rdt, rcount, hs)
		m.give(hs)
	} else {
		m.EngineFor(dst).Unpack(p, dst, rdt, rcount, stage)
	}
	m.give(stage)
}
