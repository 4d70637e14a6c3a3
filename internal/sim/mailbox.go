package sim

// Mailbox is an unbounded FIFO queue of messages between processes.
// Put never blocks; Get blocks the calling process until a message is
// available. Mailboxes model command queues (CUDA streams), active-message
// delivery queues and the like.
type Mailbox struct {
	e       *Engine
	name    string
	items   []interface{}
	waiters []*Proc
}

// NewMailbox returns an empty mailbox bound to the engine.
func (e *Engine) NewMailbox(name string) *Mailbox {
	return &Mailbox{e: e, name: name}
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return len(m.items) }

// Put enqueues v and, if a process is blocked in Get, wakes the
// longest-waiting one at the current instant. Put may be called from a
// process or from an engine callback.
func (m *Mailbox) Put(v interface{}) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		p := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.e.unpark(p, m.e.now)
	}
}

// PutAfter enqueues v after a delay of d.
func (m *Mailbox) PutAfter(d Time, v interface{}) {
	m.e.After(d, func() { m.Put(v) })
}

// Get dequeues the oldest message, blocking until one is available.
func (m *Mailbox) Get(p *Proc) interface{} {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.park(blockRecv, m.name)
	}
	v := m.items[0]
	m.items[0] = nil
	m.items = m.items[1:]
	return v
}
