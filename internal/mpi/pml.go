package mpi

import (
	"fmt"
	"slices"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Request tracks an outstanding Isend/Irecv. A point-to-point request is
// the head of one record (eagerReq, sendReq, recvReq).
type Request struct {
	done  sim.Future
	recvd int64  // packed bytes of the matched message (receives)
	rec   record // the record the request heads; nil for one that stands alone
}

// init readies the request at the head of rec for a new message.
func (r *Request) init(e *sim.Engine, rec record) {
	r.done.Init(e)
	r.recvd, r.rec = 0, rec
}

// await waits for rq, a request the library made for its own use, reads
// the packed bytes it received and releases its record: the owner's
// reference (DESIGN decision 26). Nothing may touch rq afterwards.
func await(p *sim.Proc, rq *Request) int64 {
	rq.Wait(p)
	n := rq.recvd
	rq.rec.release()
	return n
}

// newRequest returns an incomplete request that stands alone (a
// nonblocking collective, an RMA operation).
func (m *Rank) newRequest() *Request {
	r := new(Request)
	r.done.Init(m.w.eng)
	return r
}

// A send is one record: eagerReq for an eager message, sendReq for a
// rendezvous — whose operation holds the pipelined strategy's sender,
// worker process included, by value, so it is several times the size of
// an eager send and the two are kept apart. The RTS rides in the record,
// and the AM that carries it points to it. A receive is a recvReq, which
// is also the process that delivers the message once it is matched;
// whether it becomes eager or rendezvous is not known when it is posted,
// so the pipelined strategy's receiver half is a record of its own, taken
// at the match (pipeRecv). Every one of them comes from its world's free
// list and goes back once the last party naming it lets go (records.go).
type eagerReq struct {
	req  Request
	rts  rtsMsg
	home home[eagerReq]
}

type sendReq struct {
	req  Request
	op   SendOp
	rts  rtsMsg
	home home[sendReq]
}

type recvReq struct {
	req  Request
	op   RecvOp
	msg  *rtsMsg  // the matched message, until proc takes it
	proc sim.Proc // started at the match (startRecv); Run is its body
	home home[recvReq]
}

// Wait blocks the calling process until the operation completes.
func (r *Request) Wait(p *sim.Proc) { r.done.Await(p) }

// ReceivedBytes reports the packed byte count of the matched message,
// valid once a receive request completes. A partial receive reports
// fewer bytes than the posted capacity.
func (r *Request) ReceivedBytes() int64 { return r.recvd }

// GetCount reports how many whole elements of dt arrived, the
// MPI_Get_count semantics.
func (r *Request) GetCount(dt *datatype.Datatype) int {
	if dt.Size() == 0 {
		return 0
	}
	return int(r.recvd / dt.Size())
}

// Done reports (non-blocking) whether the operation has completed
// (MPI_Test).
func (r *Request) Done() bool { return r.done.Done() }

// Complete marks the request finished; for use by Strategy
// implementations outside this package.
func (r *Request) Complete() { r.done.Complete(nil) }

// WaitAll blocks the rank's process until every request completes
// (MPI_Waitall). The requests stay the caller's.
func (m *Rank) WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait(&m.proc)
	}
}

// rtsMsg is a send as its receiver sees it: either an eager message
// whose packed payload already sits in a receiver-side host scratch
// buffer, or a rendezvous ready-to-send carrying the sender strategy's
// info. It is the handler of the AM that announces it.
type rtsMsg struct {
	dst      *Rank // the rank that matches it
	src, tag int
	packed   int64
	sdt      *datatype.Datatype
	scount   int
	eager    mem.Buffer // the payload, if eager; invalid for a rendezvous
	info     any        // rendezvous strategy info
	snd      record     // the send record the RTS rides in
}

// Handle delivers the RTS to its rank's matching (on the progress
// process).
func (r *rtsMsg) Handle(p *sim.Proc, _ int) { r.dst.arrived(p, r) }

// SendOp carries everything a strategy needs on the sender side.
type SendOp struct {
	M      *Rank
	Buf    mem.Buffer
	Dt     *datatype.Datatype
	Count  int
	Dest   int
	Tag    int
	Packed int64
	Ch     Channel // sender -> receiver
	Req    *Request

	// pipe is the pipelined strategy's sender half, held by value so a
	// rendezvous send is one record (unused under another strategy).
	pipe pipeSend
}

// RecvOp carries everything a strategy needs on the receiver side.
type RecvOp struct {
	M      *Rank
	Buf    mem.Buffer
	Dt     *datatype.Datatype
	Count  int
	Src    int     // as posted (AnySource allowed) until matched, then the sender
	Tag    int     // likewise
	Packed int64   // sender's packed size (set at match time)
	Ch     Channel // receiver -> sender (for ACKs and pack requests)
	Req    *Request
}

// Strategy is the rendezvous data-movement policy: the default
// PipelinedStrategy implements the paper's protocols; the MVAPICH-style
// comparator implements §2.2's vectorization approach.
//
// op lives in a record that is recycled for a later message once the
// request is complete and the receive is done with it (DESIGN decision
// 30), so a strategy must not touch op after it completes op.Req.
type Strategy interface {
	Name() string
	// StartSend runs on the sender's process; the returned info is
	// delivered to the receiver with the RTS. The strategy must
	// eventually complete op.Req.
	StartSend(op *SendOp) any
	// RunRecv runs on a dedicated receiver process once the message is
	// matched, and must complete op.Req. The sender's record stays
	// until it returns.
	RunRecv(p *sim.Proc, op *RecvOp, info any)
}

// Isend starts a send and returns its request, which is the caller's for
// good: its record never goes back to the free list.
func (m *Rank) Isend(buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) *Request {
	return m.w.recs.keep(m.isendOn(&m.proc, buf, dt, count, dest, tag))
}

// isendOn is Isend issued from an explicit process: the rank's main
// process for the public API, or a spawned schedule process for
// nonblocking collectives. The cooperative engine runs exactly one
// process at a time, so the rank's matching lists and pools stay
// race-free whichever process drives the send. The request's record is
// held by its owner and by the receiver, which has the RTS.
func (m *Rank) isendOn(sp *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, dest, tag int) *Request {
	packed := int64(count) * dt.Size()
	ch := m.channel(dest)
	rts := rtsMsg{dst: m.w.ranks[dest], src: m.rank, tag: tag, packed: packed, sdt: dt, scount: count}
	if packed <= m.w.tun.eager {
		return m.eagerSend(sp, buf, ch, rts)
	}
	s := m.w.recs.send.take(m.w, 2)
	s.req.init(m.w.eng, s)
	op := &s.op
	op.M, op.Buf, op.Dt, op.Count, op.Dest, op.Tag, op.Packed, op.Ch, op.Req = m, buf, dt, count, dest, tag, packed, ch, &s.req
	op.pipe.rec = s
	h := sp.BeginBytes("mpi.rts", packed)
	s.rts = rts
	s.rts.snd = s
	s.rts.info = m.w.tun.strategy.StartSend(op)
	ch.AM(sp, amHeaderBytes, &s.rts, 0)
	h.End()
	return &s.req
}

// eagerSend packs the whole message into a receiver-side host bounce
// buffer and notifies the receiver: the short/eager protocol.
func (m *Rank) eagerSend(sp *sim.Proc, buf mem.Buffer, ch Channel, rts rtsMsg) *Request {
	h := sp.BeginBytes("mpi.eager.send", rts.packed)
	defer h.End()
	s := m.w.recs.eager.take(m.w, 2)
	s.req.init(m.w.eng, s)
	local := m.take(m.space, rts.packed)
	m.packToHost(sp, buf, rts.sdt, rts.scount, local)
	rts.eager = rts.dst.take(rts.dst.space, rts.packed)
	ch.Put(sp, rts.eager, local)
	m.give(local)
	s.rts = rts
	s.rts.snd = s
	ch.AM(sp, amHeaderBytes, &s.rts, 0)
	s.req.done.Complete(nil) // eager: locally complete once injected
	return &s.req
}

// Irecv posts a receive and returns its request, which is the caller's
// for good (see Isend).
func (m *Rank) Irecv(buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) *Request {
	return m.w.recs.keep(m.irecv(buf, dt, count, source, tag))
}

// irecv is Irecv for the library's own use: the request's record is held
// by its owner, and by its process once the message is matched.
func (m *Rank) irecv(buf mem.Buffer, dt *datatype.Datatype, count, source, tag int) *Request {
	r := m.w.recs.recv.take(m.w, 1)
	r.req.init(m.w.eng, r)
	r.op = RecvOp{M: m, Buf: buf, Dt: dt, Count: count, Src: source, Tag: tag, Req: &r.req}
	// Match against unexpected arrivals in order.
	for i, u := range m.unexp {
		if matches(source, tag, u.src, u.tag) {
			m.unexp = slices.Delete(m.unexp, i, i+1)
			m.startRecv(r, u)
			return &r.req
		}
	}
	m.posted = append(m.posted, r)
	return &r.req
}

func matches(wantSrc, wantTag, src, tag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == AnyTag || wantTag == tag)
}

// arrived handles an incoming RTS (on the progress process).
func (m *Rank) arrived(p *sim.Proc, msg *rtsMsg) {
	for i, r := range m.posted {
		if matches(r.op.Src, r.op.Tag, msg.src, msg.tag) {
			m.posted = slices.Delete(m.posted, i, i+1)
			m.startRecv(r, msg)
			return
		}
	}
	m.unexp = append(m.unexp, msg)
}

// startRecv launches delivery of a matched message: it starts the
// receive's own process. A message shorter than the posted receive is
// legal when the sender's signature is a prefix of the receiver's
// (partial receive, MPI_Get_count semantics); a longer message is
// truncation and a non-prefix mismatch is an error, both of which stay
// fatal.
func (m *Rank) startRecv(r *recvReq, msg *rtsMsg) {
	op := &r.op
	if cap := int64(op.Count) * op.Dt.Size(); msg.packed > cap {
		panic(fmt.Sprintf("mpi: truncation: rank %d recv capacity %d < message %d (src %d tag %d)",
			m.rank, cap, msg.packed, msg.src, msg.tag))
	}
	switch {
	case datatype.SignaturesMatch(msg.sdt, msg.scount, op.Dt, op.Count):
	case int64(op.Count)*op.Dt.Size() == msg.packed:
		// Same packed bytes, different element shape: the Fig. 11 reshape.
	case datatype.SignaturePrefix(msg.sdt, msg.scount, op.Dt, op.Count):
		// Shorter message with a signature-compatible prefix.
	default:
		panic(fmt.Sprintf("mpi: datatype signature mismatch: %s x%d vs %s x%d",
			msg.sdt.Name(), msg.scount, op.Dt.Name(), op.Count))
	}
	op.Req.recvd = msg.packed
	op.Packed = msg.packed
	op.Src = msg.src
	op.Tag = msg.tag
	op.Ch = m.channel(msg.src)
	r.msg = msg
	name := m.names.eagerRecv
	if !msg.eager.IsValid() {
		name = m.recvName(msg.src)
	}
	r.home.refs++ // the process's
	m.w.eng.Start(&r.proc, name, r)
}

// Run is the receive process: unpack an eager payload from its host
// bounce buffer, or run the strategy's rendezvous receiver. It lets go
// of the sender's record once it is done with the RTS, and of its own
// last.
func (r *recvReq) Run(p *sim.Proc) {
	op, msg := &r.op, r.msg
	r.msg = nil // the request outlives the message; the sender's record need not
	m := op.M
	h := p.BeginBytes("mpi.recv", op.Packed)
	if buf := msg.eager; buf.IsValid() {
		msg.snd.release()
		h.SetDetail("eager")
		m.unpackFromHost(p, op.Buf, op.Dt, op.Count, buf.Slice(0, op.Packed))
		m.give(buf)
		h.End()
		op.Req.done.Complete(nil)
		r.release()
		return
	}
	h.SetDetail(m.w.tun.strategy.Name())
	m.w.tun.strategy.RunRecv(p, op, msg.info)
	msg.snd.release()
	h.End()
	r.release()
}

// packToHost packs (buf, dt, count) into the host buffer dst.
func (m *Rank) packToHost(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer) {
	h := p.BeginBytes("pack", dst.Len())
	m.EngineFor(buf).Pack(p, buf, dt, count, dst)
	h.End()
}

// unpackFromHost is the inverse of packToHost. src may hold fewer packed
// bytes than the full layout (a partial receive).
func (m *Rank) unpackFromHost(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count int, src mem.Buffer) {
	h := p.BeginBytes("unpack", src.Len())
	m.EngineFor(buf).UnpackPrefix(p, buf, dt, count, src)
	h.End()
}
