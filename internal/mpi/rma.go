package mpi

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// One-sided communication (MPI-2 RMA) over the same datatype-aware
// transfer strategies as point-to-point: the paper notes that a
// committed datatype is usable by "point-to-point, collective, I/O and
// one-sided functions", and the GPU datatype engine composes unchanged —
// a Put packs GPU-resident non-contiguous data at the origin and
// scatters it into the target window's layout through the pipelined
// protocols, with the target's progress engine (not its application
// code) running the receiver side.
//
// Synchronization model: Put and Get return Requests that complete only
// after the remote side has fully completed (a slightly stronger
// guarantee than MPI's), so Fence is Wait-all + Barrier.

// Win is a window of locally exposed memory (host or device).
type Win struct {
	m     *Rank
	id    int
	buf   mem.Buffer
	local []*Request // operations this rank originated in the open epoch
}

// winBufs returns the registry row for window id, sized on demand.
func (w *World) winBufs(id int) []mem.Buffer {
	for len(w.wins) <= id {
		w.wins = append(w.wins, make([]mem.Buffer, len(w.ranks)))
	}
	return w.wins[id]
}

// WinCreate exposes buf to all ranks. Collective: every rank must call
// it in the same order.
func (m *Rank) WinCreate(buf mem.Buffer) *Win {
	id := m.winSeq
	m.winSeq++
	m.w.winBufs(id)[m.rank] = buf
	m.Barrier() // all ranks registered
	return &Win{m: m, id: id, buf: buf}
}

// multiFuture completes its request after n sub-completions. It is the
// handler of the AM that reports the remote one.
type multiFuture struct {
	req *Request
	n   int
}

func (mf *multiFuture) done() {
	mf.n--
	if mf.n == 0 {
		mf.req.done.Complete(nil)
	}
}

func (mf *multiFuture) Handle(*sim.Proc, int) { mf.done() }

// rmaPut is a Put as its target runs it: the receive it starts when the
// origin's AM arrives, and where it reports completion.
type rmaPut struct {
	rop    RecvOp // M, Buf, Dt, Count, Src and Packed set by the origin
	info   any
	origin *multiFuture
}

// Put transfers (origin, odt, ocount) into the target rank's window at
// byte displacement tdisp with layout (tdt, tcount). It returns a
// request that completes once the data is in place at the target.
func (w *Win) Put(origin mem.Buffer, odt *datatype.Datatype, ocount, target int, tdisp int64, tdt *datatype.Datatype, tcount int) *Request {
	m := w.m
	checkRMAArgs(odt, ocount, tdt, tcount)
	req := m.newRequest()
	w.local = append(w.local, req)
	mf := &multiFuture{req: req, n: 2}

	packed := int64(ocount) * odt.Size()
	ch := m.channel(target)
	internal := m.newRequest()
	op := &SendOp{M: m, Buf: origin, Dt: odt, Count: ocount, Dest: target, Tag: -1, Packed: packed, Ch: ch, Req: internal}
	info := m.w.tun.strategy.StartSend(op)
	m.w.eng.Spawn(fmt.Sprintf("rank%d.put.origin", m.rank), func(p *sim.Proc) {
		internal.Wait(p)
		mf.done()
	})

	tbuf := m.w.winBufs(w.id)[target].Slice(tdisp, tdt.Span(tcount))
	ch.AM(&m.proc, amHeaderBytes, &rmaPut{
		rop:  RecvOp{M: m.w.ranks[target], Buf: tbuf, Dt: tdt, Count: tcount, Src: m.rank, Tag: -1, Packed: packed},
		info: info, origin: mf,
	}, 0)
	return req
}

// Handle runs the target side of a Put on the target's progress
// process.
func (t *rmaPut) Handle(*sim.Proc, int) {
	rop := &t.rop
	tRank := rop.M
	rop.Ch, rop.Req = tRank.channel(rop.Src), tRank.newRequest()
	tRank.w.eng.Spawn(fmt.Sprintf("rank%d.put.target", tRank.rank), func(p *sim.Proc) {
		tRank.w.tun.strategy.RunRecv(p, rop, t.info)
		// Remote completion notification back to the origin.
		rop.Ch.AM(p, amHeaderBytes, t.origin, 0)
	})
}

// rmaGet is a Get: the send its target starts for the window region,
// and the receive the origin runs once the target's reply arrives.
type rmaGet struct {
	sop      SendOp // M, Buf, Dt, Count, Dest and Packed set by the origin
	internal Request
	rop      RecvOp
	info     any
}

// The two steps of a Get, as the integers of its two AMs.
const (
	getAtTarget = iota
	getAtOrigin
)

// Get transfers (tdt, tcount) at byte displacement tdisp of the target
// rank's window into (origin, odt, ocount). The target's progress
// engine runs the sender side; the application there is not involved.
func (w *Win) Get(origin mem.Buffer, odt *datatype.Datatype, ocount, target int, tdisp int64, tdt *datatype.Datatype, tcount int) *Request {
	m := w.m
	checkRMAArgs(odt, ocount, tdt, tcount)
	req := m.newRequest()
	w.local = append(w.local, req)

	packed := int64(tcount) * tdt.Size()
	tbuf := m.w.winBufs(w.id)[target].Slice(tdisp, tdt.Span(tcount))
	// Ask the target to start a sender for its window region; it ships
	// the strategy info back, and we run the receiver locally.
	g := &rmaGet{
		sop: SendOp{M: m.w.ranks[target], Buf: tbuf, Dt: tdt, Count: tcount, Dest: m.rank, Tag: -1, Packed: packed},
		rop: RecvOp{M: m, Buf: origin, Dt: odt, Count: ocount, Src: target, Tag: -1, Packed: packed, Ch: m.channel(target), Req: req},
	}
	m.channel(target).AM(&m.proc, amHeaderBytes, g, getAtTarget)
	return req
}

// Handle runs a step of a Get on the progress process of the rank it
// has reached.
func (g *rmaGet) Handle(p *sim.Proc, step int) {
	if step == getAtTarget {
		tRank := g.sop.M
		g.internal.done.Init(tRank.w.eng)
		g.sop.Ch, g.sop.Req = tRank.channel(g.sop.Dest), &g.internal
		g.info = tRank.w.tun.strategy.StartSend(&g.sop)
		g.sop.Ch.AM(p, amHeaderBytes, g, getAtOrigin)
		return
	}
	m := g.rop.M
	m.w.eng.Spawn(fmt.Sprintf("rank%d.get.origin", m.rank), func(p *sim.Proc) {
		m.w.tun.strategy.RunRecv(p, &g.rop, g.info)
	})
}

// Fence completes the access epoch: waits for every locally originated
// operation (which, by construction, implies remote completion), then
// synchronizes all ranks.
func (w *Win) Fence() {
	w.m.WaitAll(w.local...)
	w.local = w.local[:0]
	w.m.Barrier()
}

func checkRMAArgs(odt *datatype.Datatype, ocount int, tdt *datatype.Datatype, tcount int) {
	if !datatype.SignaturesMatch(odt, ocount, tdt, tcount) {
		panic(fmt.Sprintf("mpi: RMA signature mismatch: %s x%d vs %s x%d", odt.Name(), ocount, tdt.Name(), tcount))
	}
}
