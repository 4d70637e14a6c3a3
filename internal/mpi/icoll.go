package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Nonblocking collectives. Each I* call reserves its tag block
// synchronously — so every rank advances collSeq identically no matter
// how calls, kernels and waits interleave — and then hands the same
// schedule the blocking call would run to a per-collective progress
// process. The returned Request completes when the schedule finishes;
// the caller's process is free to launch kernels or further collectives
// in the meantime, which is exactly the overlap the paper's pipelined
// engine exists to serve.
//
// The progress engine advances a collective at channel granularity: the
// schedule process blocks in the next channel operation (send, receive,
// staging copy) and the simulator's cooperative scheduler interleaves
// it with the rank's main process between those operations. Fragments
// are not the progress unit — fragment pipelining belongs to the
// point-to-point strategies underneath (DESIGN decision 13).

// startColl reserves ntags collective tags — synchronously, in the
// caller — then spawns body on a dedicated progress process and returns
// the request that completes when it finishes. body is the very
// function the blocking twin runs on the rank's main process. The
// progress process is non-daemon, so an un-waited collective still runs
// to completion before the simulation ends.
func (m *Rank) startColl(name string, bytes int64, ntags int, body func(p *sim.Proc, tag int)) *Request {
	req := m.newRequest()
	tag := m.tagBlock(ntags)
	m.collOut++
	m.icollSeq++
	m.w.eng.Spawn(fmt.Sprintf("rank%d.icoll.%s.%d", m.rank, name, m.icollSeq), func(p *sim.Proc) {
		h := p.BeginBytes("coll.async."+name, bytes)
		body(p, tag)
		h.End()
		p.Count("mpi.icoll", 1)
		m.collOut--
		req.done.Complete(nil)
	})
	return req
}

// cloneInts snapshots a count/displacement vector at call time, so the
// caller may reuse its slices immediately after an I* call returns.
func cloneInts(v []int) []int {
	if v == nil {
		return nil
	}
	return append([]int(nil), v...)
}

// packedTotal is the packed size of a whole count vector.
func packedTotal(counts []int, dt *datatype.Datatype) int64 {
	var total int64
	for _, c := range counts {
		total += int64(c) * dt.Size()
	}
	return total
}

// Ibcast is the nonblocking Bcast.
func (m *Rank) Ibcast(buf mem.Buffer, dt *datatype.Datatype, count, root int) *Request {
	return m.startColl("bcast", int64(count)*dt.Size(), m.bcastTags(), func(p *sim.Proc, tag int) {
		m.bcast(p, tag, buf, dt, count, root)
	})
}

// Ireduce is the nonblocking Reduce.
func (m *Rank) Ireduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op, root int) *Request {
	return m.startColl("reduce", int64(count)*dt.Size(), m.reduceTags(), func(p *sim.Proc, tag int) {
		m.reduce(p, tag, sendBuf, recvBuf, dt, count, op, root)
	})
}

// Iallreduce is the nonblocking Allreduce.
func (m *Rank) Iallreduce(sendBuf, recvBuf mem.Buffer, dt *datatype.Datatype, count int, op Op) *Request {
	return m.startColl("allreduce", int64(count)*dt.Size(), m.allreduceTags(), func(p *sim.Proc, tag int) {
		m.allreduce(p, tag, sendBuf, recvBuf, dt, count, op)
	})
}

// Iallgather is the nonblocking Allgather.
func (m *Rank) Iallgather(buf mem.Buffer, dt *datatype.Datatype, count int) *Request {
	return m.startColl("allgather", int64(m.Size())*int64(count)*dt.Size(), m.allgatherTags(), func(p *sim.Proc, tag int) {
		m.allgather(p, tag, buf, dt, count)
	})
}

// Iallgatherv is the nonblocking Allgatherv.
func (m *Rank) Iallgatherv(buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) *Request {
	checkVArgs("Iallgatherv", m.Size(), buf, dt, counts, displs)
	counts, displs = cloneInts(counts), cloneInts(displs)
	return m.startColl("allgatherv", packedTotal(counts, dt), m.allgatherTags(), func(p *sim.Proc, tag int) {
		m.allgatherv(p, tag, buf, counts, displs, dt)
	})
}

// Ialltoall is the nonblocking Alltoall.
func (m *Rank) Ialltoall(sendBuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recvBuf mem.Buffer, rdt *datatype.Datatype, rcount int) *Request {
	return m.startColl("alltoall", int64(m.Size())*int64(scount)*sdt.Size(), m.alltoallTags(), func(p *sim.Proc, tag int) {
		m.alltoall(p, tag, sendBuf, sdt, scount, recvBuf, rdt, rcount)
	})
}

// Ialltoallv is the nonblocking Alltoallv.
func (m *Rank) Ialltoallv(sendBuf mem.Buffer, scounts, sdispls []int, sdt *datatype.Datatype,
	recvBuf mem.Buffer, rcounts, rdispls []int, rdt *datatype.Datatype) *Request {
	checkVArgs("Ialltoallv", m.Size(), sendBuf, sdt, scounts, sdispls)
	checkVArgs("Ialltoallv", m.Size(), recvBuf, rdt, rcounts, rdispls)
	scounts, sdispls = cloneInts(scounts), cloneInts(sdispls)
	rcounts, rdispls = cloneInts(rcounts), cloneInts(rdispls)
	return m.startColl("alltoallv", packedTotal(scounts, sdt), m.alltoallvTags(), func(p *sim.Proc, tag int) {
		m.alltoallv(p, tag, sendBuf, scounts, sdispls, sdt, recvBuf, rcounts, rdispls, rdt)
	})
}

// Ibarrier is the nonblocking Barrier: the dissemination schedule over
// reserved collective tags (the blocking Barrier's mailbox rendezvous
// cannot overlap with itself, reserved tags can).
func (m *Rank) Ibarrier() *Request {
	return m.startColl("barrier", 0, m.barrierTags(), func(p *sim.Proc, tag int) {
		m.dissemination(p, m.worldComm(), tag)
	})
}
