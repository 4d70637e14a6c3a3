package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// The nonblocking collective. Iallgatherv reserves its tag block
// synchronously — so every rank advances collSeq identically no matter
// how calls, kernels and waits interleave — and then hands the schedule
// Allgatherv runs to a per-collective progress process. The returned
// Request completes when the schedule finishes; the caller's process is
// free to launch kernels or further collectives in the meantime, which
// is exactly the overlap the paper's pipelined engine exists to serve.
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
// caller may reuse its slices immediately after Iallgatherv returns.
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

// Iallgatherv is the nonblocking Allgatherv.
func (m *Rank) Iallgatherv(buf mem.Buffer, counts, displs []int, dt *datatype.Datatype) *Request {
	checkVArgs("Iallgatherv", m.Size(), buf, dt, counts, displs)
	counts, displs = cloneInts(counts), cloneInts(displs)
	return m.startColl("allgatherv", packedTotal(counts, dt), m.allgatherTags(), func(p *sim.Proc, tag int) {
		m.allgatherv(p, tag, buf, counts, displs, dt)
	})
}
