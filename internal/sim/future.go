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

	// The waiters, in wait order: a queue linked through Proc.waitNext,
	// which a process parked here uses for nothing else — it awaits one
	// future at a time — so a wait allocates nothing, however many there
	// are.
	first, last *Proc
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
	for p := f.first; p != nil; {
		next := p.waitNext
		p.waitNext = nil
		f.e.unpark(p, f.e.now)
		p = next
	}
	f.first, f.last = nil, nil
}

// Await blocks the calling process until the future completes and returns
// its value. If the future is already complete it returns immediately
// without yielding.
func (f *Future) Await(p *Proc) interface{} {
	if f.done {
		return f.value
	}
	if f.first == nil {
		f.first = p
	} else {
		f.last.waitNext = p
	}
	f.last = p
	p.park(blockAwait, nil)
	return f.value
}
