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

// Mailbox is an unbounded FIFO queue of messages between processes.
// Put never blocks; Get blocks the calling process until a message is
// available. Mailboxes model command queues (CUDA streams), active-message
// delivery queues and the like.
type Mailbox struct {
	e       *Engine
	name    string
	items   fifo[interface{}]
	waiters fifo[*Proc]
}

// NewMailbox returns an empty mailbox bound to the engine.
func (e *Engine) NewMailbox(name string) *Mailbox {
	return &Mailbox{e: e, name: name}
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return m.items.len() }

// Put enqueues v and, if a process is blocked in Get, wakes the
// longest-waiting one at the current instant. Put may be called from a
// process or from an engine callback.
func (m *Mailbox) Put(v interface{}) {
	m.items.push(v)
	if m.waiters.len() > 0 {
		m.e.unpark(m.waiters.pop(), m.e.now)
	}
}

// putArg is a PutAfter on its way: the event that delivers it names it
// by its slot in Engine.puts.
type putArg struct {
	m *Mailbox
	v interface{}
}

// PutAfter enqueues v after a delay of d, which must not be negative.
func (m *Mailbox) PutAfter(d Time, v interface{}) {
	if d < 0 {
		panic("sim: PutAfter into the past")
	}
	m.e.post(m.e.now+d, evPut, m.e.puts.put(putArg{m, v}))
}

// Get dequeues the oldest message, blocking until one is available.
func (m *Mailbox) Get(p *Proc) interface{} {
	for m.items.len() == 0 {
		m.waiters.push(p)
		p.park(blockRecv, m.name)
	}
	return m.items.pop()
}
