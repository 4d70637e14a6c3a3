package mpi

import (
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Kind identifies the BTL a channel uses.
type Kind int

// Channel kinds.
const (
	SM Kind = iota // shared-memory BTL (smcuda): same node
	IB             // openib BTL: across nodes
)

func (k Kind) String() string {
	if k == SM {
		return "smcuda"
	}
	return "openib"
}

// amHeaderBytes is the wire size of an active-message header (callback
// reference plus fragment control fields, §4.1).
const amHeaderBytes = 64

// Channel is the unidirectional BTL connection from one rank to another.
// Active messages arrive in order; payload-bearing operations charge the
// appropriate interconnect. Everything about it follows from where the
// two ranks sit, so it is a value derived on demand (Rank.channel), not
// a record kept per peer.
type Channel struct {
	src, dst *Rank
}

// Kind returns the BTL kind.
func (c Channel) Kind() Kind {
	if c.src.place.Node == c.dst.place.Node {
		return SM
	}
	return IB
}

// Peer returns the destination rank handle.
func (c Channel) Peer() *Rank { return c.dst }

// SameDevice reports whether both endpoints use the same GPU of the
// same node (the 1GPU configuration).
func (c Channel) SameDevice() bool {
	return c.Kind() == SM && c.src.place.GPU == c.dst.place.GPU
}

// hcas returns the IB endpoints of the two ranks' nodes.
func (c Channel) hcas() (src, dst *ib.HCA) {
	hcas := c.src.w.hcas
	return hcas[c.src.place.Node], hcas[c.dst.place.Node]
}

// AM sends an active message of wireBytes: to.Handle(arg) executes on
// the destination rank's progress process, in order with other AMs on
// this channel. An active message is a value — a record the destination
// side already holds and an integer, the ib.Msg an HCA carries — so
// sending one allocates nothing on either BTL. Control messages must
// get through for any protocol to make progress, so an injected send
// fault (a send timeout) is retried with backoff and exhaustion is
// fatal.
func (c Channel) AM(p *sim.Proc, wireBytes int64, to ib.Handler, arg int) {
	msg := ib.Msg{Dst: c.dst.rank, To: to, Arg: arg}
	if c.Kind() == SM {
		// Shared-memory FIFO: fixed injection cost, tiny latency.
		c.dst.inbox.PutAfter(AMLatency, msg)
		return
	}
	src, dst := c.hcas()
	c.src.mustRetry(p, "am.send", func() error {
		return src.Send(p, dst, wireBytes, &msg)
	})
}

// amQueue is a queue an active message fills: Handle puts the AM's
// integer (a freed ring slot, a barrier arrival).
type amQueue struct{ sim.Mailbox[int] }

func (q *amQueue) Handle(_ *sim.Proc, v int) { q.Put(v) }

// Put transfers payload bytes from a sender-side host buffer into a
// receiver-side host buffer (RDMA write for IB; a shared-memory copy via
// the host bus for SM), blocking the caller until remote completion.
// Injected faults — failed registrations, send timeouts, dropped RDMA
// completions — are retried with backoff. The retry is idempotent: a
// lost operation moved no bytes, and a dropped completion landed the
// payload in the same bytes the retransmission writes again.
func (c Channel) Put(p *sim.Proc, dst, src mem.Buffer) {
	if c.Kind() == SM {
		c.src.mustRetry(p, "put.copy", func() error {
			return c.src.ctx.Node().HostCopy(p, dst, src)
		})
		return
	}
	srcHCA, dstHCA := c.hcas()
	c.src.mustRetry(p, "put.register", func() error {
		return srcHCA.Register(p, src)
	})
	c.src.mustRetry(p, "put.register", func() error {
		return dstHCA.Register(p, dst)
	})
	c.src.mustRetry(p, "put.rdma", func() error {
		return srcHCA.Write(p, dstHCA, dst, src)
	})
}
