package mpi

import (
	"errors"
	"fmt"

	"gpuddt/internal/cuda"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// withRetry runs fn until it succeeds or the per-operation attempt
// budget (fault.MaxAttempts) is exhausted, charging capped exponential
// backoff between attempts (the PML's recovery timer). The fault
// injector has already charged the detection latency — the virtual time
// a real stack spends waiting for the timeout or the error CQE — by the
// time fn returns an error, so this loop only adds the deliberate
// backoff. A fault classified persistent (errors.Is
// fault.ErrPersistent) aborts the loop immediately: retrying a dead
// path would only burn backoff before the same failure. With a nil
// fault plan fn cannot fail and the loop costs nothing.
func (m *Rank) withRetry(p *sim.Proc, what string, fn func() error) error {
	var err error
	for attempt := 0; attempt < fault.MaxAttempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if errors.Is(err, fault.ErrPersistent) {
			break
		}
		if attempt+1 >= fault.MaxAttempts {
			break
		}
		p.Count("mpi.retry", 1)
		h := p.Begin("mpi.retry.backoff")
		h.SetDetail(what)
		p.Sleep(fault.Backoff(attempt))
		h.End()
	}
	return err
}

// mustRetry is withRetry for call sites with no recovery protocol above
// them (eager puts, active messages, staged copies): exhausting the
// budget there means the transport itself is gone, which stays fatal.
func (m *Rank) mustRetry(p *sim.Proc, what string, fn func() error) {
	if err := m.withRetry(p, what, fn); err != nil {
		panic(fmt.Sprintf("mpi: rank %d: %s failed after %d attempts: %v",
			m.rank, what, fault.MaxAttempts, err))
	}
}

// peerBuf is a buffer a rank publishes to a peer on its node: device
// memory travels with the IPC handle the peer maps it through, host
// memory is shared as it is.
type peerBuf struct {
	buf mem.Buffer
	ipc cuda.IpcHandle // valid when buf is device memory
}

// share publishes b to a peer on the rank's node.
func (m *Rank) share(b mem.Buffer) peerBuf {
	pb := peerBuf{buf: b}
	if b.Kind() == mem.Device {
		pb.ipc = m.ctx.IpcGetMemHandle(b)
	}
	return pb
}

// open returns the buffer a peer shared as this rank reaches it: host
// memory as it is, device memory mapped through its IPC handle with
// bounded retries. A persistent fault surfaces as an error rather than a
// panic so the caller can downgrade a zero-copy protocol to staged
// copy-in/out.
func (m *Rank) open(p *sim.Proc, pb peerBuf) (mem.Buffer, error) {
	if pb.buf.Kind() == mem.Host {
		return pb.buf, nil
	}
	var b mem.Buffer
	err := m.withRetry(p, "ipc.open", func() error {
		var e error
		b, e = m.ctx.IpcOpenMemHandle(p, pb.ipc)
		return e
	})
	return b, err
}
