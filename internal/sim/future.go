package sim

// Future is a one-shot completion signal carrying an optional value.
// A process blocks on Await until another process (or an engine callback)
// calls Complete. Completing an already-complete future panics.
//
// Futures are the simulation analogue of CUDA events and of request
// completion in the MPI layer. A record that completes once — a request,
// a stream operation — embeds its Future by value (Init) instead of
// pointing to one.
type Future struct {
	e     *Engine
	done  bool
	at    Time
	value interface{}

	waiters procQueue
}

// procQueue is a queue of parked processes in wait order, linked
// through Proc.waitNext, which a parked process uses for nothing else —
// it waits on one future, mailbox or resource at a time — so a wait
// allocates nothing, however many there are.
type procQueue struct{ first, last *Proc }

func (q *procQueue) empty() bool { return q.first == nil }

func (q *procQueue) push(p *Proc) {
	p.waitNext = nil
	if q.first == nil {
		q.first = p
	} else {
		q.last.waitNext = p
	}
	q.last = p
}

func (q *procQueue) pop() *Proc {
	p := q.first
	q.first, p.waitNext = p.waitNext, nil
	if q.first == nil {
		q.last = nil
	}
	return p
}

// NewFuture returns an incomplete future bound to the engine.
func (e *Engine) NewFuture() *Future { return &Future{e: e} }

// Init makes f, embedded in a larger record, an incomplete future bound
// to the engine.
func (f *Future) Init(e *Engine) { *f = Future{e: e} }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done at the current virtual time and wakes all
// waiters (at the same instant, in wait order).
func (f *Future) Complete(value interface{}) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.at = f.e.now
	f.value = value
	for !f.waiters.empty() {
		f.e.unpark(f.waiters.pop(), f.e.now)
	}
}

// Await blocks the calling process until the future completes and returns
// its value. If the future is already complete it returns immediately
// without yielding.
func (f *Future) Await(p *Proc) interface{} {
	if f.done {
		return f.value
	}
	f.waiters.push(p)
	p.park(blockAwait, nil)
	return f.value
}
