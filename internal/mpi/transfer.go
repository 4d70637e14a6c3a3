package mpi

import (
	"gpuddt/internal/core"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// fragProducer packs a message fragment-at-a-time from the send buffer
// through the engine that moves the buffer's bytes (see Rank.EngineFor).
// Its packer is held by value, and every fragment's pack launches from
// the producer's one kernel record, which a recycled send record keeps.
type fragProducer struct {
	pk   core.Packer
	k    gpu.Kernel // kept: a fragment's pack is awaited before the next
	live bool       // pk is the current message's
}

// init makes fp, embedded in a send record, the producer of (buf, dt,
// count).
func (fp *fragProducer) init(m *Rank, buf mem.Buffer, dt *datatype.Datatype, count int) {
	m.EngineFor(buf).InitPacker(&fp.pk, buf, dt, count)
	fp.live = true
}

// reset clears fp for its record's next message, keeping its kernel.
func (fp *fragProducer) reset() { fp.pk, fp.live = core.Packer{}, false }

// packInto fills frag with the next len(frag) packed bytes, blocking
// until frag holds the data.
func (fp *fragProducer) packInto(p *sim.Proc, frag mem.Buffer) {
	_, fut := fp.pk.PackWith(p, frag, &fp.k)
	fut.Await(p)
}

// fragConsumer scatters arriving packed fragments into the receive
// buffer. Fragments must arrive in packed order. For GPU receivers with
// a remote (peer-GPU) source it stages fragments in local device memory
// before unpacking — the option the paper measures as 5-10% faster —
// double-buffered so the staging copy of fragment i+1 overlaps the
// unpack kernel of fragment i. Like fragProducer it holds its unpacker
// by value, and its unpacks launch from kernel records it keeps.
type fragConsumer struct {
	m      *Rank
	op     *RecvOp
	acks   *ackQueue  // the sender's free-slot queue, for fragments that hold a slot
	contig mem.Buffer // receiver contiguous window (fast path)
	pk     core.Packer

	stage    mem.Buffer
	stageFut [2]*sim.Future
	scratch  mem.Buffer // host staging for device source -> host layout
	i        int
	lastFut  *sim.Future

	ks []*gpu.Kernel // kept kernel records the unpacks launch from (see kernel)
}

// init makes fc, embedded in a receive record, the consumer of op's
// message; acks is where freed slots go back to.
func (fc *fragConsumer) init(m *Rank, op *RecvOp, acks *ackQueue) {
	*fc = fragConsumer{m: m, op: op, acks: acks, ks: fc.ks}
	if w, ok := contigWindow(op.Buf, op.Dt, op.Count); ok {
		fc.contig = w
		return
	}
	m.EngineFor(op.Buf).InitUnpacker(&fc.pk, op.Buf, op.Dt, op.Count)
}

// consume processes one packed fragment located at src (a sender ring
// slot, a receiver host ring slot, or a window of the sender's data) and
// returns its slot to the sender — unless it is fragNoSlot — as soon as
// src may be reused. Two staging rules decide where the unpacker reads
// from: a host layout stages a device fragment through host scratch (the
// CPU cannot read device memory); a GPU layout stages a remote fragment
// in a local double-buffered ring (§5.2.1). An injected copy fault is
// retried in place: every fallible step runs before the consumer's
// cursors advance (fc.i, the unpacker position), so a retry replays
// exactly the same fragment into the same bytes.
func (fc *fragConsumer) consume(p *sim.Proc, src mem.Buffer, off, n int64, slot int) {
	h := p.BeginBytes("frag.consume", n)
	defer h.End()
	m := fc.m
	switch {
	case fc.contig.IsValid():
		m.mustRetry(p, "frag.copy", func() error {
			return m.ctx.Memcpy(p, fc.contig.Slice(off, n), src)
		})
		fc.ack(p, slot)

	case fc.op.Buf.Kind() == mem.Host: // host layout
		if src.Kind() == mem.Device {
			if !fc.scratch.IsValid() {
				fc.scratch = m.take(m.space, src.Len())
			}
			stage := fc.scratch.Slice(0, n)
			m.mustRetry(p, "frag.stage", func() error {
				return m.ctx.Memcpy(p, stage, src)
			})
			fc.ack(p, slot)
			src = stage
		} else {
			defer fc.ack(p, slot)
		}
		fc.pk.UnpackWith(p, src, nil)

	default: // GPU layout
		dev := m.EngineFor(fc.op.Buf).Device()
		direct := src.Kind() == mem.Host ||
			src.Space() == dev.Mem() ||
			m.w.tun.directRemoteUnpack
		if direct {
			_, fut := fc.pk.UnpackWith(p, src, fc.kernel(-1))
			fc.lastFut = fut
			fc.ackWhen(fut, slot)
			return
		}
		// Staged: copy the packed fragment into local device memory
		// first, then unpack locally (§5.2.1).
		if !fc.stage.IsValid() {
			fc.stage = m.take(dev.Mem(), 2*m.w.tun.frag)
		}
		half := fc.i % 2
		if f := fc.stageFut[half]; f != nil {
			f.Await(p) // previous unpack from this staging half
		}
		stage := fc.stage.Slice(int64(half)*m.w.tun.frag, n)
		m.mustRetry(p, "frag.stage", func() error {
			return m.ctx.Memcpy(p, stage, src)
		})
		fc.i++
		fc.ack(p, slot)
		_, fut := fc.pk.UnpackWith(p, stage, fc.kernel(half))
		fc.stageFut[half] = fut
		fc.lastFut = fut
	}
}

// kernel returns the kept kernel record the next unpack launches from.
// An unpack from staging half i >= 0 takes that half's record, whose
// last launch the caller has awaited, so stageFut[i] is never re-armed
// under a later wait. Any other takes the first idle one: an ACK process
// awaiting a kernel started before the kernel could complete, so it is
// done with the record once the record is idle.
func (fc *fragConsumer) kernel(i int) *gpu.Kernel {
	if i < 0 {
		for _, k := range fc.ks {
			if k.Idle() {
				return k
			}
		}
		i = len(fc.ks)
	}
	for len(fc.ks) <= i {
		fc.ks = append(fc.ks, new(gpu.Kernel))
	}
	return fc.ks[i]
}

// reset clears fc for its record's next message, keeping its kernels.
func (fc *fragConsumer) reset() { *fc = fragConsumer{ks: fc.ks} }

// finish waits for outstanding asynchronous unpacks and releases
// staging resources.
func (fc *fragConsumer) finish(p *sim.Proc) {
	h := p.Begin("unpack.drain")
	if fc.lastFut != nil {
		fc.lastFut.Await(p)
	}
	for _, f := range fc.stageFut {
		if f != nil {
			f.Await(p)
		}
	}
	h.End()
	if fc.stage.IsValid() {
		fc.m.give(fc.stage)
		fc.stage = mem.Buffer{}
	}
	if fc.scratch.IsValid() {
		fc.m.give(fc.scratch)
		fc.scratch = mem.Buffer{}
	}
}

// abandon releases a consumer whose protocol attempt was aborted by a
// fault before completing: outstanding unpacks are drained and the
// staging slabs go back to their pools so the fallback protocol (and
// every transfer after it) reuses them instead of leaking them.
func (fc *fragConsumer) abandon(p *sim.Proc) {
	p.Count("mpi.consumer.abandon", 1)
	fc.finish(p)
}

// ack returns a fragment's slot to the sender.
func (fc *fragConsumer) ack(p *sim.Proc, slot int) {
	if slot != fragNoSlot {
		sendAck(p, fc.op.Ch, fc.acks, slot)
	}
}

// ackWhen acks once fut completes, without blocking the caller: an
// acker from the world's list does it.
func (fc *fragConsumer) ackWhen(fut *sim.Future, slot int) {
	if slot == fragNoSlot {
		return
	}
	w := fc.m.w
	a := w.recs.ack.take(w, 1) // its process's
	a.fut, a.ch, a.q, a.slot = fut, fc.op.Ch, fc.acks, slot
	fc.acks.r.hold()
	w.eng.Start(&a.proc, fc.m.names.ack, a)
}

// acker returns a ring slot to the sender once the unpack that reads it
// has completed, without blocking the receive: a process of its own,
// holding a reference to the receiver half whose queue it names. It
// keeps the channel by value, as the receive it serves may be home
// before it runs.
type acker struct {
	proc sim.Proc
	fut  *sim.Future
	ch   Channel
	q    *ackQueue
	slot int
	home home[acker]
}

func (a *acker) Run(p *sim.Proc) {
	a.fut.Await(p)
	sendAck(p, a.ch, a.q, a.slot)
	r := a.q.r
	a.release()
	r.release()
}
