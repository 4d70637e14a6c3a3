package mpi

import (
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
//
// A rendezvous is one record per side: the sender's half (pipeSend)
// lives in the send's operation, the receiver's (pipeRecv) is taken when
// the message is matched. Every queue of the protocol is a typed
// mailbox embedded in one of them, and every active message names one
// of them plus an integer. Both halves are recycled (DESIGN decision
// 26): an active message or a queued command naming a record holds a
// reference to it, so an ACK that lands after both sides are done — the
// staged ring stops reading them after its last fragment — or an event
// of a cancelled attempt never reaches a later message's record.
type PipelinedStrategy struct{}

// Name implements Strategy.
func (s *PipelinedStrategy) Name() string { return "pipelined" }

// pipeSend is the sender half of a rendezvous, held by value in its
// SendOp: the handshake the receiver reads through the RTS (§4.1), the
// worker process, its producer and the queues the worker reads. The
// worker runs one command per protocol attempt and exits when an
// attempt completes; an aborted attempt loops back for the receiver's
// fallback command. On the SM contiguous fast path the worker is not
// started at all unless the receiver's zero-copy attempt fails and it
// commands a staged send.
type pipeSend struct {
	op  *SendOp
	rec *sendReq // the record holding op; nil for a one-sided operation's

	// contig is the sender's packed data window when the send datatype
	// is contiguous; over SM the receiver consumes it in place.
	contig peerBuf

	// ring is the SM ring the sender packs into, published before its
	// first fragment event.
	ring peerBuf

	worker  sim.Proc     // started once per message (start); Run is its body
	started bool         // the worker has been started for this message
	epoch   int          // commands received (see fragQueue)
	prod    fragProducer // reused (rewound) across protocol attempts
	stager  stager       // the staged sender's packing process

	cmds      sim.Mailbox[sendCmd]
	freeLocal sim.Mailbox[int] // staged sender: free host staging slots
	filled    sim.Mailbox[int] // staged sender: slots the packer filled
}

// hold takes a reference to the send record for a process or an active
// message that names st; release drops one.
func (st *pipeSend) hold() {
	if st.rec != nil {
		st.rec.home.refs++
	}
}

func (st *pipeSend) release() {
	if st.rec != nil {
		st.rec.release()
	}
}

// reset readies st, whose record is home, for the record's next
// message. It keeps what st has grown — its mailboxes' arrays, its
// producer's kernel record — and leaves its processes alone: the last
// reference may be one of theirs, still on its stack.
func (st *pipeSend) reset() {
	st.op = nil
	st.contig, st.ring = peerBuf{}, peerBuf{}
	st.started, st.epoch = false, 0
	st.prod.reset()
}

// sendCmd is a receiver-to-sender command: the protocol to run, and the
// receiver's record, which holds what the protocol needs (its queues,
// its host ring or its receive window). A command holds a reference to
// the record until the worker is done with it.
type sendCmd struct {
	kind int
	r    *pipeRecv
}

const (
	cmdPackToRing = iota // pack into a ring the receiver maps (SM)
	cmdPackDirect        // pack straight into the receive window (SM)
	cmdSendStaged        // copy-in/out through host memory (IB, and every fallback)
)

// Handle completes the send: the receiver's AM once it has consumed the
// sender's window in place.
func (st *pipeSend) Handle(*sim.Proc, int) {
	st.op.Req.done.Complete(nil)
	st.release()
}

// pipeRecv is the receiver half of a rendezvous, one record taken when
// the message is matched: the sender half it reads, its consumer, the
// queues the sender fills and what its commands name.
type pipeRecv struct {
	op  *RecvOp
	snd *pipeSend
	fc  fragConsumer

	events fragQueue // fragment events from the sender
	acks   ackQueue  // freed slots back to the sender; ackAbort cancels

	ring   mem.Buffer // host ring the staged sender Puts into
	direct peerBuf    // receive window the sender writes straight into

	home home[pipeRecv]
}

// reset readies r, which is home, for its next message, keeping its
// consumer's kernel records and its queues' arrays.
func (r *pipeRecv) reset() {
	r.op, r.snd = nil, nil
	r.fc.reset()
	r.events.epoch = 0
	r.ring, r.direct = mem.Buffer{}, peerBuf{}
}

// Handle is the command AM (the CTS), run on the sender's progress
// process: it starts the worker — the fast-path sender's materializes
// only when a fallback needs it — and queues the command, which keeps
// the AM's reference to r.
func (r *pipeRecv) Handle(_ *sim.Proc, kind int) {
	r.snd.start()
	r.snd.cmds.Put(sendCmd{kind, r})
}

// command sends the sender a command naming this record.
func (r *pipeRecv) command(p *sim.Proc, kind int) {
	r.events.epoch++
	h := p.Begin("mpi.cts")
	r.hold()
	r.op.Ch.AM(p, amHeaderBytes, r, kind)
	h.End()
}

// ackAbort, put into the acks queue by the receiver, cancels the
// protocol attempt: the sender worker unwinds and awaits the fallback
// command. It is delivered through the ACK stream because that is
// where an in-progress sender provably blocks: the receiver aborts only
// before acknowledging the fragment it failed on, so the sender is
// short at least one ACK and must consume the abort.
const ackAbort = -1

// ackQueue is the receiver half's queue of freed slots, which the
// sender reads: an ACK, an AM naming it, holds a reference to r until
// it lands.
type ackQueue struct {
	sim.Mailbox[int]
	r *pipeRecv
}

func (q *ackQueue) Handle(_ *sim.Proc, slot int) {
	q.Put(slot)
	q.r.release()
}

// sendAck returns a freed slot to the sender over ch.
func sendAck(p *sim.Proc, ch Channel, q *ackQueue, slot int) {
	p.Count("mpi.ack", 1)
	q.r.hold()
	ch.AM(p, amHeaderBytes, q, slot)
}

// getAck returns the next freed slot index, or ok=false on ackAbort.
func getAck(p *sim.Proc, acks *ackQueue) (int, bool) {
	v := acks.Get(p)
	return v, v != ackAbort
}

// A fragment event is the ring or staging slot the fragment sits in:
// the receiver knows every fragment's offset and length from the order
// of the events. Two values are no slot.
const (
	fragNoSlot = -1 // the fragment went straight into the receive window
	fragFailed = -2 // the sender could not run the command (a persistent peer-access fault)
)

// fragQueue holds fragment events. Each event's integer carries the
// parity of the command it answers in bit 0: a command cancelled by
// ackAbort may still have events in flight, which Handle drops on
// arrival and next skips if they were queued before the cancel — as a
// fresh mailbox per command once left them unread, no process wakes
// for them. An event, an AM naming the queue, holds a reference to r
// until it lands, dropped or not.
type fragQueue struct {
	sim.Mailbox[int]
	epoch int // commands issued
	r     *pipeRecv
}

func (q *fragQueue) Handle(_ *sim.Proc, v int) {
	if v&1 == q.epoch&1 {
		q.Put(v)
	}
	q.r.release()
}

// next returns the slot of the current command's next fragment event.
func (q *fragQueue) next(p *sim.Proc) int {
	for {
		if v := q.Get(p); v&1 == q.epoch&1 {
			return v >> 1
		}
	}
}

// notifyFrag sends a fragment event to the receiver.
func (st *pipeSend) notifyFrag(p *sim.Proc, r *pipeRecv, slot int) {
	r.hold()
	st.op.Ch.AM(p, amHeaderBytes, &r.events, slot<<1|st.epoch&1)
}

// fragments is the number of pipeline fragments of a message of total
// packed bytes, and fragment the packed offset and length of the i-th.
func fragments(total, frag int64) int { return int((total + frag - 1) / frag) }

func fragment(i int, total, frag int64) (off, n int64) {
	off = int64(i) * frag
	return off, min(frag, total-off)
}

// contigWindow returns the packed window of (buf, dt, count) when the
// layout is a single gap-free block.
func contigWindow(buf mem.Buffer, dt *datatype.Datatype, count int) (mem.Buffer, bool) {
	off, n, ok := dt.Dense(count)
	if !ok {
		return mem.Buffer{}, false
	}
	return buf.Slice(off, n), true
}

// StartSend implements Strategy: publish handshake info and, unless the
// SM contiguous fast path applies, start the command-driven sender
// worker. The fast path leaves the worker unstarted — §4.1: "if the
// sender datatype is contiguous, the receiver can use the sender buffer
// directly", no sender-side work at all — but still publishes the
// command queue so the receiver can demote to a staged send if its IPC
// mapping of the window fails.
func (s *PipelinedStrategy) StartSend(op *SendOp) any {
	st := &op.pipe
	st.op = op
	st.cmds.Init(op.M.w.eng, op.M.names.sendcmds)
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && op.Ch.Kind() == SM {
		st.contig = op.M.share(w)
		return st
	}
	st.start()
	return st
}

// start starts the sender worker once per message; the worker holds a
// reference to the send record while it runs.
func (st *pipeSend) start() {
	if st.started {
		return
	}
	st.started = true
	st.hold()
	m := st.op.M
	m.w.eng.Start(&st.worker, m.names.sendpipe, st)
}

// Run is the sender worker: one command per protocol attempt, until one
// completes.
func (st *pipeSend) Run(p *sim.Proc) {
	for {
		cmd := st.cmds.Get(p)
		st.epoch++
		var ok bool
		switch cmd.kind {
		case cmdPackToRing:
			ok = st.runPackToRing(p, cmd.r)
		case cmdPackDirect:
			ok = st.runPackDirect(p, cmd.r)
		case cmdSendStaged:
			ok = st.runSendStaged(p, cmd.r)
		}
		cmd.r.release()
		if ok {
			st.op.Req.done.Complete(nil)
			st.release()
			return
		}
		// Aborted. The receiver cancels an attempt only en route to
		// issuing a fallback command, so waiting here cannot deadlock.
		p.Count("mpi.protocol.abort", 1)
	}
}

// producer returns the sender's fragment producer, rewound to packed
// offset zero: a fallback attempt replays the whole message through the
// same packer (Packer.SeekTo) rather than rebuilding the worker.
func (st *pipeSend) producer() *fragProducer {
	if !st.prod.live {
		st.prod.init(st.op.M, st.op.Buf, st.op.Dt, st.op.Count)
	} else {
		st.prod.pk.SeekTo(0)
	}
	return &st.prod
}

// runPackToRing is the SM sender of the pipelined RDMA protocol: pack
// fragments into a ring exposed over CUDA IPC, reusing slots as ACKs
// arrive (§4.1, Fig. 4). Returns false if the receiver aborted the
// attempt (it could not map the ring).
func (st *pipeSend) runPackToRing(p *sim.Proc, r *pipeRecv) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.ring", op.Packed)
	defer h.End()
	frag := m.w.tun.frag

	ring := m.take(op.Buf.Space(), frag*pipelineDepth)
	prod := st.producer()

	// The first pipelineDepth fragments take the ring's slots in order;
	// every later one waits for the receiver to ACK a slot back. Nothing
	// waits for a slot that starts free, so it is not queued.
	nfrag := fragments(op.Packed, frag)
	for i := range nfrag {
		_, n := fragment(i, op.Packed, frag)
		slot := i
		if i >= pipelineDepth {
			var ok bool
			if slot, ok = getAck(p, &r.acks); !ok {
				m.give(ring)
				return false
			}
		}
		fh := p.BeginBytes("frag.pack", n)
		prod.packInto(p, ring.Slice(int64(slot)*frag, n))
		fh.End()
		p.Count("mpi.frag", 1)
		if i == 0 {
			st.ring = m.share(ring)
		}
		st.notifyFrag(p, r, slot)
	}
	// Wait until every slot has come home before reusing the ring.
	for range min(nfrag, pipelineDepth) {
		if _, ok := getAck(p, &r.acks); !ok {
			m.give(ring)
			return false
		}
	}
	m.give(ring)
	return true
}

// runPackDirect is the SM fast path when the receiver datatype is
// contiguous: the sender packs straight into the receiver's memory
// (same GPU: plain kernels; peer GPU: IPC-mapped zero-copy writes over
// PCIe; host: UMA zero copy) — no unpack, no staging (§4.1). Returns
// false if the receiver's window cannot be mapped (persistent IPC
// fault); the failure event tells the receiver to fall back.
func (st *pipeSend) runPackDirect(p *sim.Proc, r *pipeRecv) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.direct", op.Packed)
	defer h.End()
	dst, err := m.open(p, r.direct)
	if err != nil {
		st.notifyFrag(p, r, fragFailed)
		return false
	}
	prod := st.producer()
	frag := m.w.tun.frag
	for i := range fragments(op.Packed, frag) {
		off, n := fragment(i, op.Packed, frag)
		fh := p.BeginBytes("frag.pack", n)
		prod.packInto(p, dst.Slice(off, n))
		fh.End()
		p.Count("mpi.frag", 1)
	}
	st.notifyFrag(p, r, fragNoSlot)
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
func (st *pipeSend) runSendStaged(p *sim.Proc, r *pipeRecv) bool {
	op := st.op
	m := op.M
	h := p.BeginBytes("mpi.send.ib", op.Packed)
	defer h.End()
	frag := m.w.tun.frag
	nfrag := fragments(op.Packed, frag)

	// Host-contiguous data needs no staging: Put from the user buffer.
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && w.Kind() == mem.Host {
		for i := range nfrag {
			off, n := fragment(i, op.Packed, frag)
			st.sendStagedFrag(p, r, i, off, n, w.Slice(off, n))
		}
		return true
	}

	// The stager fills local host staging slots; this process drains
	// them onto the wire, so pack(i+1) overlaps transfer(i).
	local := m.take(m.space, 2*frag)
	st.producer()
	st.freeLocal.Init(m.w.eng, "ib.freeLocal")
	st.filled.Init(m.w.eng, "ib.filled")
	st.stager.st, st.stager.local = st, local
	st.hold()
	m.w.eng.Start(&st.stager.proc, m.names.ibpack, &st.stager)
	for i := range nfrag {
		off, n := fragment(i, op.Packed, frag)
		ls := st.filled.Get(p)
		st.sendStagedFrag(p, r, i, off, n, local.Slice(int64(ls)*frag, n))
		st.freeLocal.Put(ls)
	}
	m.give(local)
	return true
}

// stager is the staged sender's packing process: it packs the message
// into the two host staging slots of local, each as soon as the worker
// has put the last fragment in it on the wire, holding a reference to
// the send record while it runs.
type stager struct {
	proc  sim.Proc
	st    *pipeSend
	local mem.Buffer
}

func (s *stager) Run(p *sim.Proc) {
	st := s.st
	op := st.op
	frag := op.M.w.tun.frag
	for i := range fragments(op.Packed, frag) {
		_, n := fragment(i, op.Packed, frag)
		ls := i // both slots start free
		if i >= 2 {
			ls = st.freeLocal.Get(p)
		}
		fh := p.BeginBytes("frag.pack", n)
		st.prod.packInto(p, s.local.Slice(int64(ls)*frag, n))
		fh.End()
		p.Count("mpi.frag", 1)
		st.filled.Put(ls)
	}
	s.st, s.local = nil, mem.Buffer{}
	st.release()
}

// sendStagedFrag Puts one packed fragment and notifies the receiver.
// Ring mode waits for the target slot's ACK window.
func (st *pipeSend) sendStagedFrag(p *sim.Proc, r *pipeRecv, i int, off, n int64, src mem.Buffer) {
	if r.direct.buf.IsValid() {
		st.op.Ch.Put(p, r.direct.buf.Slice(off, n), src)
		st.notifyFrag(p, r, fragNoSlot)
		return
	}
	tun := &st.op.M.w.tun
	slot := i % pipelineDepth
	if i >= pipelineDepth {
		if _, ok := getAck(p, &r.acks); !ok {
			panic("mpi: staged protocol aborted — no further fallback exists")
		}
	}
	st.op.Ch.Put(p, r.ring.Slice(int64(slot)*tun.frag, n), src)
	st.notifyFrag(p, r, slot)
}

// RunRecv implements Strategy: the receiver-driven side, on a receiver
// half taken from the world's list. The half holds the sender's for as
// long as it is held itself.
func (s *PipelinedStrategy) RunRecv(p *sim.Proc, op *RecvOp, info any) {
	w := op.M.w
	r := w.recs.pipe.take(w, 1) // the receive's
	r.op, r.snd = op, info.(*pipeSend)
	r.snd.hold()
	r.events.Init(w.eng, "recv.events")
	r.events.r = r
	r.acks.Init(w.eng, "recv.acks")
	r.acks.r = r
	r.run(p)
	r.release()
}

// run selects and runs the receiver's protocol.
func (r *pipeRecv) run(p *sim.Proc) {
	op := r.op
	if op.Ch.Kind() == SM {
		if r.snd.contig.buf.IsValid() {
			r.fromSenderWindow(p)
			return
		}
		if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok {
			r.packDirect(p, w)
			return
		}
		r.fromRing(p)
		return
	}
	r.staged(p)
}

// fallback downgrades a zero-copy SM protocol to the pipelined
// copy-in/out protocol after a persistent peer-access fault: the sender
// is (re-)commanded to pack through host staging and Put fragments into
// the receiver's host memory — exactly the IB protocol, run over the
// shared-memory BTL. The downgrade is marked on the timeline so tests
// (and operators) can assert it happened.
func (r *pipeRecv) fallback(p *sim.Proc) {
	h := p.Begin("mpi.fallback")
	h.SetDetail("zero-copy->copy-in/out")
	h.End()
	p.Count("mpi.fallback", 1)
	r.staged(p)
}

// fromSenderWindow consumes the sender's contiguous data in place (SM):
// a single copy when the receiver is contiguous too, otherwise
// fragment-wise unpacking with optional local staging. If the sender's
// device window cannot be IPC-mapped, the receiver falls back to
// commanding a staged send (the fast-path sender has no worker running
// yet, so nothing needs to be aborted).
func (r *pipeRecv) fromSenderWindow(p *sim.Proc) {
	op := r.op
	m := op.M
	src, err := m.open(p, r.snd.contig) // map cost (cached)
	if err != nil {
		r.fallback(p)
		return
	}
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok {
		m.mustRetry(p, "frag.copy", func() error {
			return m.ctx.Memcpy(p, w.Slice(0, op.Packed), src)
		})
	} else {
		r.fc.init(m, op, nil)
		frag := m.w.tun.frag
		for i := range fragments(op.Packed, frag) {
			off, n := fragment(i, op.Packed, frag)
			r.fc.consume(p, src.Slice(off, n), off, n, fragNoSlot)
		}
		r.fc.finish(p)
	}
	r.snd.hold()
	op.Ch.AM(p, amHeaderBytes, r.snd, 0)
	op.Req.done.Complete(nil)
}

// packDirect tells the sender to pack straight into the receiver's
// contiguous window w and waits for completion. A failure event (the
// sender could not map the window) triggers the staged fallback.
func (r *pipeRecv) packDirect(p *sim.Proc, w mem.Buffer) {
	op := r.op
	r.direct = op.M.share(w.Slice(0, op.Packed))
	r.command(p, cmdPackDirect)
	if r.events.next(p) == fragFailed {
		r.fallback(p)
		return
	}
	op.Req.done.Complete(nil)
}

// fromRing is the receiver of the SM pipelined RDMA protocol. If the
// sender's device ring cannot be IPC-mapped, the attempt is aborted
// through the ACK stream and the transfer falls back to staging.
func (r *pipeRecv) fromRing(p *sim.Proc) {
	op := r.op
	m := op.M
	r.command(p, cmdPackToRing)
	r.fc.init(m, op, &r.acks)
	frag := m.w.tun.frag
	var ring mem.Buffer
	for i := range fragments(op.Packed, frag) {
		slot := r.events.next(p)
		if !ring.IsValid() {
			var err error
			if ring, err = m.open(p, r.snd.ring); err != nil {
				// Cancel the attempt before acking anything: the
				// sender is short every ACK, so it must consume the
				// abort, unwind, and await the staged command.
				r.acks.Put(ackAbort)
				r.fc.abandon(p)
				r.fallback(p)
				return
			}
		}
		off, n := fragment(i, op.Packed, frag)
		r.fc.consume(p, ring.Slice(int64(slot)*frag, n), off, n, slot)
	}
	r.fc.finish(p)
	op.Req.done.Complete(nil)
}

// staged drives the copy-in/out receiver: set up a host ring (or expose
// the contiguous host window), command the sender, and unpack arrivals.
// It serves both the IB path and the SM fallback path — the protocol
// only needs Channel.Put semantics, which both BTLs provide.
func (r *pipeRecv) staged(p *sim.Proc) {
	op := r.op
	m := op.M
	tun := &m.w.tun
	frag := tun.frag

	// Contiguous host receiver: Put straight into the user buffer.
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok && w.Kind() == mem.Host {
		r.direct = m.share(w.Slice(0, op.Packed))
		r.command(p, cmdSendStaged)
		for range fragments(op.Packed, frag) {
			r.events.next(p)
		}
		op.Req.done.Complete(nil)
		return
	}

	r.direct = peerBuf{} // a failed pack-direct attempt's device window
	r.ring = m.take(m.space, frag*pipelineDepth)
	r.command(p, cmdSendStaged)
	r.fc.init(m, op, &r.acks)
	for i := range fragments(op.Packed, frag) {
		slot := r.events.next(p)
		off, n := fragment(i, op.Packed, frag)
		r.fc.consume(p, r.ring.Slice(int64(slot)*frag, n), off, n, slot)
	}
	r.fc.finish(p)
	m.give(r.ring)
	op.Req.done.Complete(nil)
}
