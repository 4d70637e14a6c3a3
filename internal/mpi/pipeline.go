package mpi

import (
	"fmt"

	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// PipelinedStrategy implements the paper's protocols (§4): a
// receiver-driven pipelined RDMA protocol over the shared-memory BTL
// (CUDA IPC, fragment ring, ACK-based slot reuse, handshake fast paths
// for contiguous endpoints) and a pipelined copy-in/out protocol over
// the InfiniBand BTL (zero-copy host staging on both sides).
//
// Under fault injection the receiver-driven design doubles as the
// recovery protocol: transient faults are retried per fragment with
// backoff, and when a peer-access (CUDA IPC) fault persists, the
// receiver cancels the zero-copy attempt and re-commands the sender to
// run the staged copy-in/out protocol over the same channel — the
// degradation path real GPU-aware MPI stacks take when P2P mappings
// are unavailable.
type PipelinedStrategy struct{}

// Name implements Strategy.
func (s *PipelinedStrategy) Name() string { return "pipelined" }

// rendInfo is the RTS payload: the handshake information the receiver
// uses to pick a transfer plan (§4.1).
type rendInfo struct {
	op *SendOp
	st *senderState

	// contig is the sender's packed data window when the send datatype
	// is contiguous; over SM the receiver consumes it in place.
	contig    mem.Buffer
	contigIPC cuda.IpcHandle // valid when contig is device memory
}

// senderState is the sender half of a rendezvous transfer, driven by
// commands from the receiver. The worker process runs one command per
// protocol attempt and exits when an attempt completes; an aborted
// attempt loops back for the receiver's fallback command. On the SM
// contiguous fast path the worker is not spawned at all unless the
// receiver's zero-copy attempt fails and it commands a staged send.
type senderState struct {
	op      *SendOp
	cmds    *sim.Mailbox
	spawned bool
	prod    *fragProducer // reused (rewound) across protocol attempts
}

// Receiver-to-sender commands. Each command that needs ACK flow control
// carries its own acks mailbox, so an aborted attempt's stale ACKs (in
// flight or preloaded) land in a mailbox no longer read by anyone
// instead of corrupting the next attempt's slot accounting.
type cmdPackToRing struct {
	events *sim.Mailbox // receiver's fragment-event queue
	acks   *sim.Mailbox // freed slot indices; abortMsg cancels
}
type cmdPackDirect struct {
	dst    cuda.IpcHandle // receiver's contiguous region (device)
	dstBuf mem.Buffer     // or host region (valid if not device)
	isDev  bool
	events *sim.Mailbox
}
type cmdSendStaged struct {
	ring   []mem.Buffer // receiver host ring slots (Put targets)
	direct mem.Buffer   // receiver contiguous host window (skip ring)
	events *sim.Mailbox
	acks   *sim.Mailbox
}

// abortMsg, put into a command's acks mailbox by the receiver, cancels
// the protocol attempt: the sender worker unwinds and awaits the
// fallback command. It is delivered through the ACK stream because that
// is where an in-progress sender provably blocks: the receiver aborts
// only before acknowledging the fragment it failed on, so the sender is
// short at least one ACK and must consume the abort.
type abortMsg struct{}

// getAck returns the next freed slot index, or ok=false on abortMsg.
func getAck(p *sim.Proc, acks *sim.Mailbox) (int, bool) {
	switch v := acks.Get(p).(type) {
	case abortMsg:
		return 0, false
	case int:
		return v, true
	default:
		panic(fmt.Sprintf("mpi: unexpected ack %T", v))
	}
}

// fragEvt is a sender-to-receiver fragment notification. failed reports
// that the sender could not run the commanded protocol (a persistent
// peer-access fault); the receiver falls back to a staged command.
type fragEvt struct {
	slot    int
	off, n  int64
	ring    mem.Buffer     // SM ring (host) — valid on first event
	ringIPC cuda.IpcHandle // SM ring (device)
	ringDev bool
	last    bool
	failed  bool
}

// contigWindow returns the packed window of (buf, dt, count) when the
// layout is a single gap-free block.
func contigWindow(buf mem.Buffer, dt *datatype.Datatype, count int) (mem.Buffer, bool) {
	off, n, ok := dt.Plan().Dense(count)
	if !ok {
		return mem.Buffer{}, false
	}
	return buf.Slice(off, n), true
}

// deviceOf returns the GPU index of a buffer on the rank's node, or -1.
func (m *Rank) deviceOf(b mem.Buffer) int {
	if b.Kind() == mem.Host {
		return -1
	}
	return m.ctx.Node().DeviceOf(b.Space())
}

// engineFor returns the rank's datatype engine for the GPU owning buf.
func (m *Rank) engineFor(b mem.Buffer) *core.Engine {
	return m.engs[m.deviceOf(b)]
}

// StartSend implements Strategy: publish handshake info and, unless the
// SM contiguous fast path applies, start the command-driven sender
// worker. The fast path leaves the worker unspawned — §4.1: "if the
// sender datatype is contiguous, the receiver can use the sender buffer
// directly", no sender-side work at all — but still publishes the
// command mailbox so the receiver can demote to a staged send if its
// IPC mapping of the window fails.
func (s *PipelinedStrategy) StartSend(op *SendOp) interface{} {
	ri := &rendInfo{op: op}
	ri.st = &senderState{
		op:   op,
		cmds: op.M.w.eng.NewMailbox(op.M.names.sendcmds),
	}
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && op.Ch.Kind() == SM {
		ri.contig = w
		if w.Kind() == mem.Device {
			ri.contigIPC = op.M.ctx.IpcGetMemHandle(w)
		}
		return ri
	}
	ri.st.start(op.M.w.eng)
	return ri
}

// start spawns the sender worker once; receivers call it from their
// command AMs (running on the sender's progress process) so the lazy
// fast-path sender only materializes when a fallback needs it.
func (st *senderState) start(eng *sim.Engine) {
	if st.spawned {
		return
	}
	st.spawned = true
	eng.Spawn(st.op.M.names.sendpipe, func(p *sim.Proc) {
		for {
			var ok bool
			switch cmd := st.cmds.Get(p).(type) {
			case cmdPackToRing:
				ok = st.runPackToRing(p, cmd)
			case cmdPackDirect:
				ok = st.runPackDirect(p, cmd)
			case cmdSendStaged:
				ok = st.runSendStaged(p, cmd)
			default:
				panic(fmt.Sprintf("mpi: unexpected sender command %T", cmd))
			}
			if ok {
				st.op.Req.done.Complete(nil)
				return
			}
			// Aborted. The receiver cancels an attempt only en route to
			// issuing a fallback command, so waiting here cannot deadlock.
			p.Count("mpi.protocol.abort", 1)
		}
	})
}

// producer returns the sender's fragment producer, rewound to packed
// offset zero: a fallback attempt replays the whole message through the
// same compiled plan (Packer.SeekTo) rather than rebuilding the worker.
func (st *senderState) producer() *fragProducer {
	if st.prod == nil {
		st.prod = st.op.M.newProducer(st.op.Buf, st.op.Dt, st.op.Count)
	} else {
		st.prod.seekTo(0)
	}
	return st.prod
}

// notifyFrag sends the fragment AM to the receiver.
func (st *senderState) notifyFrag(p *sim.Proc, events *sim.Mailbox, ev fragEvt) {
	st.op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { events.Put(ev) })
}

// fragPlan iterates the message in pipeline fragments.
func fragPlan(total, frag int64) []int64 {
	var out []int64
	for off := int64(0); off < total; off += frag {
		n := frag
		if rem := total - off; n > rem {
			n = rem
		}
		out = append(out, n)
	}
	return out
}

// runPackToRing is the SM sender of the pipelined RDMA protocol: pack
// fragments into a ring exposed over CUDA IPC, reusing slots as ACKs
// arrive (§4.1, Fig. 4). Returns false if the receiver aborted the
// attempt (it could not map the ring).
func (st *senderState) runPackToRing(p *sim.Proc, cmd cmdPackToRing) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.ring", op.Packed)
	defer h.End()
	tun := &m.w.tun
	frag := tun.frag
	depth := tun.depth
	onGPU := op.Buf.Kind() == mem.Device

	var ring mem.Buffer
	if onGPU {
		ring = m.ringBuf(op.Buf.Space(), frag*int64(depth))
	} else {
		ring = m.ringBuf(m.ctx.Node().Host(), frag*int64(depth))
	}
	prod := st.producer()

	// cmd.acks doubles as the free-slot queue: preloaded with every slot,
	// refilled by the receiver's ACK active messages.
	for i := 0; i < depth; i++ {
		cmd.acks.Put(i)
	}
	frags := fragPlan(op.Packed, frag)
	var off int64
	for i, n := range frags {
		slot, ok := getAck(p, cmd.acks)
		if !ok {
			m.releaseRing(ring)
			return false
		}
		fh := p.BeginBytes("frag.pack", n)
		prod.packInto(p, ring.Slice(int64(slot)*frag, n))
		fh.End()
		p.Count("mpi.frag", 1)
		ev := fragEvt{slot: slot, off: off, n: n, last: i == len(frags)-1}
		if i == 0 {
			if onGPU {
				ev.ringDev = true
				ev.ringIPC = m.ctx.IpcGetMemHandle(ring)
			} else {
				ev.ring = ring
			}
		}
		st.notifyFrag(p, cmd.events, ev)
		off += n
	}
	// Wait until every slot has come home before reusing the ring.
	for i := 0; i < depth; i++ {
		if _, ok := getAck(p, cmd.acks); !ok {
			m.releaseRing(ring)
			return false
		}
	}
	m.releaseRing(ring)
	return true
}

// runPackDirect is the SM fast path when the receiver datatype is
// contiguous: the sender packs straight into the receiver's memory
// (same GPU: plain kernels; peer GPU: IPC-mapped zero-copy writes over
// PCIe; host: UMA zero copy) — no unpack, no staging (§4.1). Returns
// false if the receiver's window cannot be mapped (persistent IPC
// fault); the failure event tells the receiver to fall back.
func (st *senderState) runPackDirect(p *sim.Proc, cmd cmdPackDirect) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.direct", op.Packed)
	defer h.End()
	dst := cmd.dstBuf
	if cmd.isDev {
		mapped, err := m.openIPC(p, cmd.dst)
		if err != nil {
			st.notifyFrag(p, cmd.events, fragEvt{failed: true})
			return false
		}
		dst = mapped
	}
	prod := st.producer()
	frag := m.w.tun.frag
	var off int64
	for _, n := range fragPlan(op.Packed, frag) {
		fh := p.BeginBytes("frag.pack", n)
		prod.packInto(p, dst.Slice(off, n))
		fh.End()
		p.Count("mpi.frag", 1)
		off += n
	}
	st.notifyFrag(p, cmd.events, fragEvt{off: 0, n: op.Packed, last: true})
	return true
}

// runSendStaged is the copy-in/out sender (§4.2): pack fragments into
// pinned host memory with zero-copy kernels, Put them into the
// receiver's host ring (RDMA over IB, a host copy over SM) — or
// straight into a contiguous host receive buffer — overlapping packing
// with wire transfer via a producer process. It is both the regular IB
// protocol and the fallback every SM zero-copy protocol degrades to,
// which is why it never aborts: there is nothing further to fall back
// to, so unrecoverable faults here are fatal (inside Channel.Put).
func (st *senderState) runSendStaged(p *sim.Proc, cmd cmdSendStaged) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.ib", op.Packed)
	defer h.End()
	frag := m.w.tun.frag
	frags := fragPlan(op.Packed, frag)

	// Host-contiguous data needs no staging: Put from the user buffer.
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && w.Kind() == mem.Host {
		var off int64
		for i, n := range frags {
			st.sendStagedFrag(p, cmd, i, off, n, w.Slice(off, n))
			off += n
		}
		return true
	}

	// Producer fills local host staging slots; this process drains them
	// onto the wire, so pack(i+1) overlaps transfer(i).
	local := m.ringBuf(m.ctx.Node().Host(), 2*frag)
	prod := st.producer()
	type filledSlot struct {
		ls int
		n  int64
	}
	freeLocal := m.w.eng.NewMailbox("ib.freeLocal")
	filled := m.w.eng.NewMailbox("ib.filled")
	freeLocal.Put(0)
	freeLocal.Put(1)
	m.w.eng.Spawn(m.names.ibpack, func(pp *sim.Proc) {
		for _, n := range frags {
			ls := freeLocal.Get(pp).(int)
			fh := pp.BeginBytes("frag.pack", n)
			prod.packInto(pp, local.Slice(int64(ls)*frag, n))
			fh.End()
			pp.Count("mpi.frag", 1)
			filled.Put(filledSlot{ls: ls, n: n})
		}
	})
	var off int64
	for i := range frags {
		f := filled.Get(p).(filledSlot)
		st.sendStagedFrag(p, cmd, i, off, f.n, local.Slice(int64(f.ls)*frag, f.n))
		freeLocal.Put(f.ls)
		off += f.n
	}
	m.releaseRing(local)
	return true
}

// sendStagedFrag Puts one packed fragment and notifies the receiver.
// Ring mode waits for the target slot's ACK window.
func (st *senderState) sendStagedFrag(p *sim.Proc, cmd cmdSendStaged, i int, off, n int64, src mem.Buffer) {
	if cmd.direct.IsValid() {
		st.op.Ch.Put(p, cmd.direct.Slice(off, n), src)
		st.notifyFrag(p, cmd.events, fragEvt{slot: -1, off: off, n: n, last: off+n == st.op.Packed})
		return
	}
	depth := len(cmd.ring)
	slot := i % depth
	if i >= depth {
		if _, ok := getAck(p, cmd.acks); !ok {
			panic("mpi: staged protocol aborted — no further fallback exists")
		}
	}
	st.op.Ch.Put(p, cmd.ring[slot].Slice(0, n), src)
	st.notifyFrag(p, cmd.events, fragEvt{slot: slot, off: off, n: n, last: off+n == st.op.Packed})
}

// RunRecv implements Strategy: the receiver-driven side.
func (s *PipelinedStrategy) RunRecv(p *sim.Proc, op *RecvOp, info interface{}) {
	ri := info.(*rendInfo)
	if op.Ch.Kind() == SM {
		if ri.contig.IsValid() {
			s.recvFromSenderWindow(p, op, ri)
			return
		}
		if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok {
			s.recvPackDirect(p, op, ri, w)
			return
		}
		s.recvFromRing(p, op, ri)
		return
	}
	s.recvStaged(p, op, ri)
}

// fallbackStaged downgrades a zero-copy SM protocol to the pipelined
// copy-in/out protocol after a persistent peer-access fault: the sender
// is (re-)commanded to pack through host staging and Put fragments into
// the receiver's host memory — exactly the IB protocol, run over the
// shared-memory BTL. The downgrade is marked on the timeline so tests
// (and operators) can assert it happened.
func (s *PipelinedStrategy) fallbackStaged(p *sim.Proc, op *RecvOp, ri *rendInfo) {
	h := p.Begin("mpi.fallback")
	h.SetDetail("zero-copy->copy-in/out")
	h.End()
	p.Count("mpi.fallback", 1)
	s.recvStaged(p, op, ri)
}

// recvFromSenderWindow consumes the sender's contiguous data in place
// (SM): a single copy when the receiver is contiguous too, otherwise
// fragment-wise unpacking with optional local staging. If the sender's
// device window cannot be IPC-mapped, the receiver falls back to
// commanding a staged send (the fast-path sender has no worker running
// yet, so nothing needs to be aborted).
func (s *PipelinedStrategy) recvFromSenderWindow(p *sim.Proc, op *RecvOp, ri *rendInfo) {
	m := op.M
	src := ri.contig
	if src.Kind() == mem.Device {
		mapped, err := m.openIPC(p, ri.contigIPC) // map cost (cached)
		if err != nil {
			s.fallbackStaged(p, op, ri)
			return
		}
		src = mapped
	}
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok {
		m.mustRetry(p, "frag.copy", func() error {
			return m.ctx.Memcpy(p, w.Slice(0, op.Packed), src)
		})
	} else {
		fc := m.newConsumer(op)
		var off int64
		for _, n := range fragPlan(op.Packed, m.w.tun.frag) {
			fc.consume(p, src.Slice(off, n), off, n, nil)
			off += n
		}
		fc.finish(p)
	}
	done := &ri.op.Req.done
	op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { done.Complete(nil) })
	op.Req.done.Complete(nil)
}

// recvPackDirect tells the sender to pack straight into the receiver's
// contiguous buffer and waits for completion. A failure event (the
// sender could not map our window) triggers the staged fallback.
func (s *PipelinedStrategy) recvPackDirect(p *sim.Proc, op *RecvOp, ri *rendInfo, w mem.Buffer) {
	m := op.M
	events := m.w.eng.NewMailbox("recv.direct")
	cmd := cmdPackDirect{events: events}
	if w.Kind() == mem.Device {
		cmd.isDev = true
		cmd.dst = m.ctx.IpcGetMemHandle(w.Slice(0, op.Packed))
	} else {
		cmd.dstBuf = w.Slice(0, op.Packed)
	}
	st := ri.st
	ch := p.Begin("mpi.cts")
	op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { st.start(m.w.eng); st.cmds.Put(cmd) })
	ch.End()
	for {
		ev := events.Get(p).(fragEvt)
		if ev.failed {
			s.fallbackStaged(p, op, ri)
			return
		}
		if ev.last {
			break
		}
	}
	op.Req.done.Complete(nil)
}

// recvFromRing is the receiver of the SM pipelined RDMA protocol. If
// the sender's device ring cannot be IPC-mapped, the attempt is aborted
// through the ACK stream and the transfer falls back to staging.
func (s *PipelinedStrategy) recvFromRing(p *sim.Proc, op *RecvOp, ri *rendInfo) {
	m := op.M
	events := m.w.eng.NewMailbox("recv.ring")
	acks := m.w.eng.NewMailbox("recv.ring.acks")
	st := ri.st
	ch := p.Begin("mpi.cts")
	op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { st.start(m.w.eng); st.cmds.Put(cmdPackToRing{events: events, acks: acks}) })
	ch.End()

	fc := m.newConsumer(op)
	var ring mem.Buffer
	var got int64
	for got < op.Packed {
		ev := events.Get(p).(fragEvt)
		if !ring.IsValid() {
			if ev.ringDev {
				mapped, err := m.openIPC(p, ev.ringIPC)
				if err != nil {
					// Cancel the attempt before acking anything: the
					// sender is short every ACK, so it must consume the
					// abort, unwind, and await the staged command.
					acks.Put(abortMsg{})
					fc.abandon(p)
					s.fallbackStaged(p, op, ri)
					return
				}
				ring = mapped
			} else {
				ring = ev.ring
			}
		}
		frag := m.w.tun.frag
		src := ring.Slice(int64(ev.slot)*frag, ev.n)
		slot := ev.slot
		fc.consume(p, src, ev.off, ev.n, func(pp *sim.Proc) {
			pp.Count("mpi.ack", 1)
			op.Ch.AM(pp, amHeaderBytes, func(*sim.Proc) { acks.Put(slot) })
		})
		got += ev.n
	}
	fc.finish(p)
	op.Req.done.Complete(nil)
}

// recvStaged drives the copy-in/out receiver: set up a host ring (or
// expose the contiguous host window), command the sender, and unpack
// arrivals. It serves both the IB path and the SM fallback path — the
// protocol only needs Channel.Put semantics, which both BTLs provide.
func (s *PipelinedStrategy) recvStaged(p *sim.Proc, op *RecvOp, ri *rendInfo) {
	m := op.M
	tun := &m.w.tun
	events := m.w.eng.NewMailbox("recv.ib")
	st := ri.st

	// Contiguous host receiver: Put straight into the user buffer.
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && w.Kind() == mem.Host {
		cmd := cmdSendStaged{direct: w.Slice(0, op.Packed), events: events}
		ch := p.Begin("mpi.cts")
		op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { st.start(m.w.eng); st.cmds.Put(cmd) })
		ch.End()
		for {
			if events.Get(p).(fragEvt).last {
				break
			}
		}
		op.Req.done.Complete(nil)
		return
	}

	frag := tun.frag
	depth := tun.depth
	ringBuf := m.ringBuf(m.ctx.Node().Host(), frag*int64(depth))
	ring := make([]mem.Buffer, depth)
	for i := range ring {
		ring[i] = ringBuf.Slice(int64(i)*frag, frag)
	}
	acks := m.w.eng.NewMailbox("recv.ib.acks")
	cmd := cmdSendStaged{ring: ring, events: events, acks: acks}
	ch := p.Begin("mpi.cts")
	op.Ch.AM(p, amHeaderBytes, func(*sim.Proc) { st.start(m.w.eng); st.cmds.Put(cmd) })
	ch.End()

	fc := m.newConsumer(op)
	var got int64
	for got < op.Packed {
		ev := events.Get(p).(fragEvt)
		src := ring[ev.slot].Slice(0, ev.n)
		slot := ev.slot
		fc.consume(p, src, ev.off, ev.n, func(pp *sim.Proc) {
			pp.Count("mpi.ack", 1)
			op.Ch.AM(pp, amHeaderBytes, func(*sim.Proc) { acks.Put(slot) })
		})
		got += ev.n
	}
	fc.finish(p)
	m.releaseRing(ringBuf)
	op.Req.done.Complete(nil)
}
