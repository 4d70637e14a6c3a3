package gpu

import (
	"strconv"

	"gpuddt/internal/sim"
)

// Stream is a CUDA-style in-order work queue. Operations submitted to one
// stream execute serially; distinct streams execute concurrently, sharing
// the device's DRAM port and copy engines. A server process (sim.Serve)
// drains each stream while it has work.
type Stream struct {
	dev  *Device
	name string
	q    sim.Mailbox[*streamOp]
}

// streamOp is one queued operation and its completion: a kernel launch
// (the op is then a field of that Kernel), a function, or with neither a
// marker.
type streamOp struct {
	label  string
	bytes  int64
	kernel *Kernel
	fn     func(p *sim.Proc)
	done   sim.Future
}

// NewStream creates a stream and its worker.
func (d *Device) NewStream(name string) *Stream {
	var names [2]string
	sim.Names(names[:], "gpu"+strconv.Itoa(d.id)+"."+name, "", ".q")
	s := &Stream{dev: d, name: names[0]}
	s.q.Init(d.eng, names[1])
	sim.Serve(&s.q, s.name, runOp)
	return s
}

// runOp executes one operation on the stream's worker.
func runOp(p *sim.Proc, op *streamOp) {
	if op.kernel != nil || op.fn != nil {
		h := p.BeginBytes(op.label, op.bytes)
		if op.kernel != nil {
			op.kernel.exec(p)
		} else {
			op.fn(p)
		}
		h.End()
	}
	op.done.Complete(nil)
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Submit enqueues fn on the stream and returns a future that completes
// when fn has finished. fn runs on the stream worker process and may
// sleep, hold resources and move bytes.
func (s *Stream) Submit(label string, fn func(p *sim.Proc)) *sim.Future {
	return s.SubmitN(label, 0, fn)
}

// SubmitN is Submit with a payload byte count attached to the operation's
// timeline span.
func (s *Stream) SubmitN(label string, bytes int64, fn func(p *sim.Proc)) *sim.Future {
	return s.enqueue(&streamOp{label: label, bytes: bytes, fn: fn})
}

// enqueue puts op at the end of the stream and returns its completion.
func (s *Stream) enqueue(op *streamOp) *sim.Future {
	op.done.Init(s.dev.eng)
	s.q.Put(op)
	return &op.done
}

// Record enqueues a marker (a CUDA event) and returns its future: it
// completes when all previously submitted work on the stream has finished.
func (s *Stream) Record() *sim.Future {
	return s.Submit("event", nil)
}

// Sync blocks the calling process until all work submitted so far has
// completed (cudaStreamSynchronize).
func (s *Stream) Sync(p *sim.Proc) {
	s.Record().Await(p)
}
