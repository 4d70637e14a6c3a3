package mpi

import (
	"fmt"

	"gpuddt/internal/mem"
)

// A message's records come home (DESIGN decision 26). Every record of a
// message — its send (eagerReq, sendReq), its receive (recvReq), the
// receiver half of a rendezvous (pipeRecv) and the process that returns
// a ring slot once its unpack is done (acker) — is taken from a per-world
// free list and goes back to it when the last party that can name it is
// done with it, as ob1 returns a request once the protocol has completed
// it and its owner has freed it. A record counts its parties:
//
//   - its owner, which only the library can be: the internal sites that
//     wait on a request release it (await); a request handed to the
//     caller of Isend or Irecv is never released, so never recycled;
//   - each of its own processes while it runs: the receive, the sender
//     worker, the staged sender's packer, the acker;
//   - its peer: a send's RTS until the receive process has taken what it
//     needs of it, a rendezvous send while its receiver half names it;
//   - every active message in flight that names it, and every command
//     queued for the sender that names a receiver half.
//
// One engine runs one process at a time, so a list per world needs no
// lock; the lists are per world, not per rank, because a rank of a
// 64-rank collective sends about 17 messages per world.

// home is a recycled record's bookkeeping: its world, how many parties
// can still name it, and its link on the free list while it is there.
type home[T any] struct {
	w    *World
	refs int32
	next *T
}

// recycled is a record kind with a free list.
type recycled[T any] interface {
	*T
	homeOf() *home[T]
}

// freeList is a world's list of one kind of record.
type freeList[T any, P recycled[T]] struct {
	head P
}

// take returns a record from the list, or a new one, with refs
// references.
func (l *freeList[T, P]) take(w *World, refs int32) P {
	r := l.head
	if r == nil {
		r = P(new(T))
	} else {
		l.head = P(r.homeOf().next)
	}
	*r.homeOf() = home[T]{w: w, refs: refs}
	w.recs.out++
	return r
}

// drop releases one reference to r and reports whether it was the last,
// in which case r is on the list and the caller resets it. Releasing a
// record nobody holds — a double release — panics naming its kind.
func (l *freeList[T, P]) drop(r P, kind string) bool {
	h := r.homeOf()
	if h.refs <= 0 {
		panic("mpi: " + kind + " record released twice")
	}
	if h.refs--; h.refs > 0 {
		return false
	}
	h.next, l.head = (*T)(l.head), r
	h.w.recs.out--
	return true
}

// records are a world's free lists.
type records struct {
	eager freeList[eagerReq, *eagerReq]
	send  freeList[sendReq, *sendReq]
	recv  freeList[recvReq, *recvReq]
	pipe  freeList[pipeRecv, *pipeRecv]
	ack   freeList[acker, *acker]

	out int // records taken for the library's own use and not yet home
}

// keep hands the record rq heads to the caller of Isend or Irecv: its
// owner's reference is never dropped, so it never comes home, and it
// leaves the audit.
func (rs *records) keep(rq *Request) *Request {
	rs.out--
	return rq
}

// retire hands the descriptor arrays of the kernel records kept by the
// records at home back to the descriptor pool (see World.Close).
func (rs *records) retire() {
	for s := rs.send.head; s != nil; s = s.home.next {
		s.op.pipe.prod.k.Retire()
	}
	for r := rs.pipe.head; r != nil; r = r.home.next {
		for _, k := range r.fc.ks {
			k.Retire()
		}
	}
}

// Quiescent reports what a finished world still holds: a message record
// the library took for its own use that never came home, or a scratch
// buffer or collective stage, a staging-ring buffer or a nonblocking
// collective some rank never returned. After Run every count must be
// zero; anything else is a leak, e.g. a protocol attempt abandoned on a
// fault without releasing its staging. The error names the first kind
// found, and the first rank holding it.
func (w *World) Quiescent() error {
	if w.recs.out != 0 {
		return fmt.Errorf("mpi: %d message records never came home", w.recs.out)
	}
	for _, m := range w.ranks {
		switch {
		case m.scratchOut != 0:
			return fmt.Errorf("mpi: rank %d: %d scratch buffers outstanding", m.rank, m.scratchOut)
		case m.ringOut != 0:
			return fmt.Errorf("mpi: rank %d: %d ring buffers outstanding", m.rank, m.ringOut)
		case m.collOut != 0:
			return fmt.Errorf("mpi: rank %d: %d nonblocking collectives outstanding", m.rank, m.collOut)
		}
	}
	return nil
}

// record is a message record a request heads or an RTS rides in.
type record interface{ release() }

func (s *eagerReq) homeOf() *home[eagerReq] { return &s.home }
func (s *sendReq) homeOf() *home[sendReq]   { return &s.home }
func (r *recvReq) homeOf() *home[recvReq]   { return &r.home }
func (r *pipeRecv) homeOf() *home[pipeRecv] { return &r.home }
func (a *acker) homeOf() *home[acker]       { return &a.home }

// release drops a reference to the eager send; at home it holds nothing.
func (s *eagerReq) release() {
	if s.home.w.recs.eager.drop(s, "eager send") {
		s.rts = rtsMsg{}
	}
}

// release drops a reference to the rendezvous send. At home it keeps
// what its pipelined sender has grown (see pipeSend.reset).
func (s *sendReq) release() {
	if s.home.w.recs.send.drop(s, "rendezvous send") {
		op := &s.op
		op.M, op.Buf, op.Dt, op.Ch, op.Req = nil, mem.Buffer{}, nil, Channel{}, nil
		op.pipe.reset()
		s.rts = rtsMsg{}
	}
}

// release drops a reference to the receive. Its process is not touched:
// the last reference may be the process's own, still on its stack.
func (r *recvReq) release() {
	if r.home.w.recs.recv.drop(r, "receive") {
		r.op, r.msg = RecvOp{}, nil
	}
}

// hold takes a reference to the receiver half for an active message or
// a process that will name it.
func (r *pipeRecv) hold() { r.home.refs++ }

// release drops a reference to the receiver half; the last one also
// drops its reference to the sender half.
func (r *pipeRecv) release() {
	if !r.home.w.recs.pipe.drop(r, "rendezvous receive") {
		return
	}
	snd := r.snd
	r.reset()
	snd.release()
}

// release sends the acker home.
func (a *acker) release() {
	if a.home.w.recs.ack.drop(a, "ACK") {
		a.fut, a.ch, a.q = nil, Channel{}, nil
	}
}
