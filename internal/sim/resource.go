package sim

// Resource is a counting FIFO resource with fixed capacity (slots).
// Acquire blocks the calling process until a slot is free; Release frees a
// slot and wakes the longest-waiting process. Resources model exclusive
// hardware: DMA copy engines, NIC send queues, CPU conversion threads.
type Resource struct {
	e       *Engine
	name    string
	cap     int
	inUse   int
	waiters fifo[*Proc]
}

// NewResource returns a resource with the given capacity (>= 1).
func (e *Engine) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{e: e, name: name, cap: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire takes one slot, blocking FIFO until one is available.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.cap {
		r.waiters.push(p)
		p.park(blockAcquire, &r.name)
	}
	r.inUse++
}

// Release frees one slot. It panics if no slot is held.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource " + r.name)
	}
	r.inUse--
	if r.waiters.len() > 0 {
		r.e.unpark(r.waiters.pop(), r.e.now)
	}
}

// Use runs fn while holding one slot.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
