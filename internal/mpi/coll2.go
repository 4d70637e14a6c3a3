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
	m.bcast(m.p, m.tagBlock(m.bcastTags()), buf, dt, count, root)
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
// every hop. Topology-aware worlds gather each node's slots to its
// leader first, ring the aggregated node slabs over the IB tier, and
// broadcast the result within each node; otherwise the flat ring runs.
func (m *Rank) Allgather(buf mem.Buffer, dt *datatype.Datatype, count int) {
	tag := m.tagBlock(m.allgatherTags())
	if m.hierOn() && count > 0 {
		m.hierAllgather(m.p, tag, buf, dt, count)
		return
	}
	m.ringAllgather(m.p, "Allgather", m.worldComm(), uniformView(buf, dt, count), tag)
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
	if m.hierOn() && scount > 0 && int64(scount)*sdt.Size() == int64(rcount)*rdt.Size() {
		m.hierAlltoall(m.p, tag, sendBuf, sdt, scount, recvBuf, rdt, rcount)
		return
	}
	m.exchangeAll(m.p, "Alltoall", m.worldComm(), uniformView(sendBuf, sdt, scount), uniformView(recvBuf, rdt, rcount), tag)
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
// rank, through packed form: GPU layouts use the datatype engine (pack
// to a device scratch, unpack from it); host layouts use the CPU
// converter.
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
	var stage mem.Buffer
	if src.Kind() == mem.Device || dst.Kind() == mem.Device {
		// Stage in device memory on the rank's GPU.
		stage = m.ringBuf(m.ctx.Node().GPU(m.place.GPU).Mem(), packed)
	} else {
		stage = m.scratch(packed)
	}
	window := stage.Slice(0, packed)
	if src.Kind() == mem.Device {
		m.engineFor(src).Pack(p, src, sdt, scount, window)
	} else if window.Kind() == mem.Device {
		// Host source into device stage: copy then treat as packed.
		hs := m.scratch(packed)
		m.CPUPack(p, src, sdt, scount, hs.Slice(0, packed))
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, window, hs.Slice(0, packed))
		})
		m.freeScratch(hs)
	} else {
		m.CPUPack(p, src, sdt, scount, window)
	}
	if dst.Kind() == mem.Device {
		m.engineFor(dst).Unpack(p, dst, rdt, rcount, window)
	} else if window.Kind() == mem.Device {
		hs := m.scratch(packed)
		m.mustRetry(p, "local.copy", func() error {
			return m.ctx.Memcpy(p, hs.Slice(0, packed), window)
		})
		m.CPUUnpack(p, dst, rdt, rcount, hs.Slice(0, packed))
		m.freeScratch(hs)
	} else {
		m.CPUUnpack(p, dst, rdt, rcount, window)
	}
	if stage.Kind() == mem.Device {
		m.releaseRing(stage)
	} else {
		m.freeScratch(stage)
	}
}
