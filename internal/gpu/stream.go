package gpu

import "gpuddt/internal/sim"

// Stream is a CUDA-style in-order work queue. Operations submitted to one
// stream execute serially; distinct streams execute concurrently, sharing
// the device's DRAM port and copy engines. Its server (sim.Server)
// drains it while it has work. The record that owns a stream embeds it
// by value and calls Init.
type Stream struct {
	dev *Device
	q   sim.Server[*streamOp]
}

// streamOp is one queued operation and its completion. Its work is a
// typed record that embeds the op and runs on the stream worker: a
// kernel launch (Kernel), a compute kernel (computeOp) or a submitted
// function (opFunc); with no work it is a marker.
type streamOp struct {
	label string
	bytes int64
	work  opWork
	done  sim.Future
}

// opWork is what a stream op does on the stream worker.
type opWork interface{ exec(p *sim.Proc) }

// opFunc is the work of Submit: a function value is one word, so it
// becomes an opWork without allocating.
type opFunc func(p *sim.Proc)

func (f opFunc) exec(p *sim.Proc) { f(p) }

// Init makes s an empty stream of device d, named name, with its
// server.
func (s *Stream) Init(d *Device, name string) {
	s.dev = d
	s.q.Init(d.eng, name, runOp)
}

// runOp executes one operation on the stream's worker.
func runOp(p *sim.Proc, op *streamOp) {
	if op.work != nil {
		h := p.BeginBytes(op.label, op.bytes)
		op.work.exec(p)
		h.End()
	}
	op.done.Complete(nil)
}

// Submit enqueues fn, which must not be nil, on the stream and returns a
// future that completes when fn has finished. fn runs on the stream
// worker process and may sleep, hold resources and move bytes.
func (s *Stream) Submit(label string, fn func(p *sim.Proc)) *sim.Future {
	return s.enqueue(&streamOp{label: label, work: opFunc(fn)})
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
	return s.enqueue(&streamOp{label: "event"})
}

// Sync blocks the calling process until all work submitted so far has
// completed (cudaStreamSynchronize).
func (s *Stream) Sync(p *sim.Proc) {
	s.Record().Await(p)
}
