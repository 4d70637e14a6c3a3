package sim

// fifo is a queue that pops by advancing a head index instead of
// re-slicing, so a queue that drains — the steady state of a one-deep
// mailbox or a briefly contended resource — reuses its array forever.
// The element that arrives in an empty queue is kept inline (one), so a
// queue that is never more than one deep — a per-message mailbox — has
// no array at all. Popped slots are zeroed so the queue pins nothing it
// no longer holds.
type fifo[T any] struct {
	one  T // the oldest element, when has
	has  bool
	s    []T // the elements behind it
	head int
}

func (q *fifo[T]) len() int {
	n := len(q.s) - q.head
	if q.has {
		n++
	}
	return n
}

func (q *fifo[T]) push(v T) {
	if !q.has && len(q.s) == 0 {
		q.one, q.has = v, true
		return
	}
	// A queue that never drains would otherwise grow by its dead prefix:
	// slide the live half down once it is the smaller one.
	if len(q.s) == cap(q.s) && q.head > 0 && q.head >= len(q.s)/2 {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

func (q *fifo[T]) pop() T {
	var zero T
	if q.has {
		v := q.one
		q.one, q.has = zero, false
		return v
	}
	v := q.s[q.head]
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// Mailbox is an unbounded FIFO queue of messages of type T between
// processes. Put never blocks; Get blocks the calling process until a
// message is available. Mailboxes model command queues (CUDA streams),
// active-message delivery queues and the like. A record that owns a
// queue embeds its Mailbox by value and calls Init.
type Mailbox[T any] struct {
	e       *Engine
	name    string
	items   fifo[T]
	waiters fifo[*Proc]
	later   pending[T] // PutAfter values whose delivery event is queued
}

// Init makes m, embedded in a larger record, an empty mailbox bound to
// the engine. name is what a deadlock report says a process blocked in
// Get waits for. A mailbox initialised again — its record recycled —
// drops what it held but keeps the arrays it has grown.
func (m *Mailbox[T]) Init(e *Engine, name string) {
	items, waiters := m.items.s, m.waiters.s
	clear(items)
	clear(waiters)
	*m = Mailbox[T]{e: e, name: name, items: fifo[T]{s: items[:0]}, waiters: fifo[*Proc]{s: waiters[:0]}}
}

// NewMailbox returns an empty mailbox of untyped messages, for a driver
// that passes values of mixed types; a record embeds a typed one.
func (e *Engine) NewMailbox(name string) *Mailbox[any] {
	m := new(Mailbox[any])
	m.Init(e, name)
	return m
}

// Put enqueues v and, if a process is blocked in Get, wakes the
// longest-waiting one at the current instant. Put may be called from a
// process or from an engine callback.
func (m *Mailbox[T]) Put(v T) {
	m.items.push(v)
	if m.waiters.len() > 0 {
		m.e.unpark(m.waiters.pop(), m.e.now)
	}
}

// PutAfter enqueues v after a delay of d, which must not be negative.
// The value waits in the mailbox's own table; the engine's evPut event
// names the mailbox and the value's slot there, so v is never boxed.
func (m *Mailbox[T]) PutAfter(d Time, v T) {
	if d < 0 {
		panic("sim: PutAfter into the past")
	}
	m.e.post(m.e.now+d, evPut, m.e.puts.put(putArg{m, m.later.put(v)}))
}

// deliver makes the delayed Put of the value in slot i of m.later.
func (m *Mailbox[T]) deliver(i int32) { m.Put(m.later.take(i)) }

// putter is a mailbox of any element type with a delayed Put on its way.
type putter interface{ deliver(i int32) }

// putArg is a PutAfter on its way: the event that delivers it names it
// by its slot in Engine.puts, and it names the value by its slot in the
// mailbox's pending table.
type putArg struct {
	m putter
	i int32
}

// pending holds a mailbox's delayed values until their events fire. The
// first is kept inline (slot -1), as fifo keeps its first element, so a
// mailbox with one delayed Put in flight at a time — a per-message one —
// has no table; the others take slots of a table made on first use.
type pending[T any] struct {
	one  T
	busy bool
	more *slots[T]
}

func (q *pending[T]) put(v T) int32 {
	if !q.busy {
		q.one, q.busy = v, true
		return -1
	}
	if q.more == nil {
		q.more = new(slots[T])
	}
	return q.more.put(v)
}

func (q *pending[T]) take(i int32) T {
	if i >= 0 {
		return q.more.take(i)
	}
	v := q.one
	var zero T
	q.one, q.busy = zero, false
	return v
}

// Get dequeues the oldest message, blocking until one is available.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.items.len() == 0 {
		m.waiters.push(p)
		p.park(blockRecv, &m.name)
	}
	return m.items.pop()
}

// Serve makes a daemon process, named name, that handles the messages of
// mb one handle call at a time, in arrival order: a CUDA stream worker,
// a progress loop, a router. The server holds a coroutine only while it
// has work. When mb is empty it returns and hands its coroutine back,
// and it waits as mb's standing waiter, so the next Put restarts it at
// that instant with the evProc event a Put posts to wake a process
// blocked in Get. A handler may park; what is put meanwhile is handled
// in the same run, after it. The server keeps its Proc — its name, its
// slot, its recorder track — for the life of the engine. Like every
// daemon it does not keep the simulation alive, and an idle server is
// in no deadlock report. mb must have no other consumer.
func Serve[T any](mb *Mailbox[T], name string, handle func(p *Proc, v T)) *Proc {
	e := mb.e
	p := &Proc{e: e, name: name, daemon: true}
	p.body = procFunc(func(p *Proc) {
		for mb.items.len() > 0 {
			handle(p, mb.items.pop())
		}
		mb.waiters.push(p)
	})
	p.slot = e.procs.put(p)
	if mb.items.len() > 0 {
		e.unpark(p, e.now)
	} else {
		mb.waiters.push(p)
	}
	return p
}
