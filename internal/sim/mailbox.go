package sim

// fifo is a queue that pops by advancing a head index instead of
// re-slicing, so a queue that drains — the steady state of a one-deep
// mailbox or a briefly contended resource — reuses its array forever.
// Popped slots are zeroed so the array pins nothing it no longer holds.
type fifo[T any] struct {
	s    []T
	head int
}

func (q *fifo[T]) len() int { return len(q.s) - q.head }

func (q *fifo[T]) push(v T) {
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
	v := q.s[q.head]
	var zero T
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

// PutAfter enqueues v after a delay of d.
func (m *Mailbox) PutAfter(d Time, v interface{}) {
	m.e.After(d, func() { m.Put(v) })
}

// Get dequeues the oldest message, blocking until one is available.
func (m *Mailbox) Get(p *Proc) interface{} {
	for m.items.len() == 0 {
		m.waiters.push(p)
		p.park(blockRecv, m.name)
	}
	return m.items.pop()
}
