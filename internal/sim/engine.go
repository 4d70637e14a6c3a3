package sim

import (
	"fmt"
	"iter"
	"sort"
	"strings"
	"sync"
)

// The kinds of Event an Engine queues. Event.To is a slot of the table
// the kind names.
const (
	evProc int32 = iota // start or resume the process in Engine.procs
	evCall              // run the After callback in Engine.calls
	evPut               // make the delayed Mailbox.Put in Engine.puts
)

// slots is a table whose indices stand in for its values inside queued
// events, which keeps Event free of pointers. A slot is reused once its
// value has been taken, so the table stays as small as the number of
// values outstanding at once.
type slots[T any] struct {
	at   []T
	free []int32
}

func (s *slots[T]) put(v T) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.at[i] = v
		return i
	}
	s.at = append(s.at, v)
	return int32(len(s.at) - 1)
}

func (s *slots[T]) take(i int32) T {
	v := s.at[i]
	var zero T
	s.at[i] = zero
	s.free = append(s.free, i)
	return v
}

// Engine is a deterministic discrete-event scheduler. Create one with
// NewEngine, add processes with Spawn, then call Run.
//
// Every process runs on a coroutine, and exactly one of them (or the
// engine itself) executes at any instant: Run resumes a process and gets
// control back when the process parks (sleeps, waits) or returns.
// Simulations are therefore free of data races by construction and
// produce identical event orders on every run.
type Engine struct {
	now      Time
	seq      uint64 // schedule sequence: Event.pri of the last queued event
	queue    evQueue
	procs    slots[*Proc]  // spawned and not yet finished, and every server
	calls    slots[func()] // After callbacks not yet run
	puts     slots[putArg] // Mailbox.PutAfter deliveries not yet made
	idle     []*carrier    // coroutines whose process has finished or gone idle
	carriers int           // coroutines taken so far, new or from the shelf
	live     int           // spawned and not finished processes, servers aside
	ran      bool
	linkSeq  uint64
	links    []*Link
	rec      *Recorder // nil unless a Recorder is attached (see span.go)
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Links returns every link created on this engine, in creation order
// (for utilization reporting).
func (e *Engine) Links() []*Link { return e.links }

// post queues an event for slot to at time at. Events with equal
// timestamps execute in posting order (see Event), which makes runs
// reproducible.
func (e *Engine) post(at Time, kind, to int32) {
	e.seq++
	e.queue.push(Event{At: at, pri: e.seq, To: to, Kind: kind})
}

// After runs fn at now+d without a dedicated process. fn executes on the
// engine's own stack and must not block; it may spawn processes, complete
// futures or schedule further events. It panics on times in the past.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", e.now+d, e.now))
	}
	e.post(e.now+d, evCall, e.calls.put(fn))
}

// blockKind says what a parked process waits for; Proc.on points to the
// name of the mailbox or resource. A reason is two stores when a process
// parks and becomes text (blockText[why] + *on) only inside a deadlock
// report.
type blockKind uint8

const (
	blockAwait   blockKind = iota // Future.Await
	blockRecv                     // Mailbox.Get
	blockAcquire                  // Resource.Acquire
)

var blockText = [...]string{blockAwait: "await future", blockRecv: "recv ", blockAcquire: "acquire "}

// Proc is a simulated process. All methods must be called from within the
// process's own body (the function passed to Spawn, the Runner passed to
// Start).
type Proc struct {
	e    *Engine
	name string
	body Runner
	born uint64 // schedule sequence of the start event: spawn order

	// The coroutine the process runs on, from its start event to its
	// return, and that coroutine's two switches, kept here so that a
	// park or a resume never touches the carrier: next resumes the
	// process until it parks or returns, yield is its way back to the
	// engine.
	c     *carrier
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// What the process is parked on: the name of the mailbox or resource
	// (nil for a future), and while it awaits a future, the next waiter
	// of that future (see Future). A pointer to the name keeps the pair
	// in the two words a string header would take.
	on       *string
	waitNext *Proc

	slot    int32 // index in e.procs
	daemon  bool  // a Server's: never finishes, never live
	pending bool  // a resume event is queued; never two at once
	why     blockKind
}

// Runner is the body of a process. A record that runs as a process — a
// receive, a pipelined sender — implements it and holds its Proc by
// value, so starting it allocates nothing (see Start).
type Runner interface{ Run(p *Proc) }

// procFunc is a function as a Runner. A func value is pointer-shaped, so
// boxing one into the interface allocates nothing.
type procFunc func(p *Proc)

func (f procFunc) Run(p *Proc) { f(p) }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// Spawn registers a new process that starts at the current virtual time.
// It may be called before Run or from inside a running process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := new(Proc)
	e.Start(p, name, procFunc(fn))
	return p
}

// Start is Spawn into a Proc record the caller owns, usually a field of
// the record that is also body: the process starts at the current
// virtual time from the event Spawn would post. A record may be started
// again once its process has finished — it is then a new process, with
// a recorder track of its own under its new name, as a spawned one
// would have — and Start panics while the previous one is still live
// (queued, running or parked) or if the record is a server's.
func (e *Engine) Start(p *Proc, name string, body Runner) {
	if p.daemon || p.pending || p.c != nil {
		panic("sim: process " + p.name + " started while it is live")
	}
	*p = Proc{e: e, name: name, body: body}
	e.live++
	p.slot = e.procs.put(p)
	e.unpark(p, e.now)
	p.born = e.seq
}

// Coroutines returns how many coroutines the engine has taken so far,
// new or from the shelf: at most the number of processes ever running or
// parked at once, since a finished process — or an idle server — hands
// its coroutine on.
func (e *Engine) Coroutines() int { return e.carriers }

// errShutdown is the sentinel panic that unwinds a parked process when
// Run stops its coroutine at the end of the simulation.
var errShutdown = &struct{ s string }{"sim: engine shutdown"}

// carrier is a coroutine that runs one process after another. Most
// processes are short (an eager receive, an active message) and a new
// coroutine starts on a 2 KiB stack it has to regrow, so one that has
// finished its process — or whose server has gone idle — parks on
// Engine.idle and the next start or restart event runs on it, stack and
// all; when Run ends it goes on the shelf, for the next engine. Nothing
// of this shows in the event stream: a process starts from the same
// evProc event at the same (At, pri) whichever coroutine carries it.
type carrier struct {
	p    *Proc                   // the process being carried; nil once it has returned
	next func() (struct{}, bool) // what Proc.next is while p runs
	stop func()                  // unwinds a parked process or ends an idle carrier
}

// shelf keeps idle carriers between engines, as mem's slab pool keeps a
// closed world's memory: the next engine takes them before it makes a
// coroutine. It holds at most max of them, the most carriers one engine
// has taken, and only carriers whose process has returned (c.p == nil),
// so it names nothing of an engine. A carrier moves between goroutines
// freely; a mutex, not a sync.Pool, guards the shelf, since a pool may
// drop a carrier and so leak its parked goroutine.
var shelf struct {
	sync.Mutex
	idle []*carrier
	max  int
}

// carrier returns a coroutine for a process about to start: the one that
// went idle last, one from the shelf, or a new one.
func (e *Engine) carrier() *carrier {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
		return c
	}
	e.carriers++
	shelf.Lock()
	if n := len(shelf.idle); n > 0 {
		c := shelf.idle[n-1]
		shelf.idle[n-1] = nil
		shelf.idle = shelf.idle[:n-1]
		shelf.Unlock()
		return c
	}
	shelf.Unlock()
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.run)
	return c
}

// run is the body of the coroutine: carry a process to its end, report
// idle, wait for the next one. It returns when the engine stops it.
func (c *carrier) run(yield func(struct{}) bool) {
	for {
		p := c.p
		p.yield = yield
		p.run()
		c.p, p.c = nil, nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// run calls the process's body. A panic in it leaves through the
// carrier's next() and so through Run, with the process named.
func (p *Proc) run() {
	defer func() {
		if r := recover(); r != nil && r != errShutdown {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	p.body.Run(p)
}

// suspend hands control back to the engine until the process's next
// resume event, or unwinds the process if the engine has shut down.
func (p *Proc) suspend() {
	if !p.yield(struct{}{}) {
		panic(errShutdown)
	}
}

// park suspends the process, recording what it waits for; whoever
// satisfies the wait calls unpark.
func (p *Proc) park(why blockKind, on *string) {
	p.why, p.on = why, on
	p.suspend()
}

// unpark schedules process p to start or resume at time at. A process
// has at most one resume pending and none once it has finished, which is
// what lets a queued event name it by a reusable slot.
func (e *Engine) unpark(p *Proc, at Time) {
	if p.pending || e.procs.at[p.slot] != p {
		panic("sim: process " + p.name + " resumed twice or after it finished")
	}
	p.pending = true
	e.post(at, evProc, p.slot)
}

// Sleep suspends the process for d of virtual time. Negative durations
// sleep zero time (yielding to already-queued same-time events). A
// sleeper's wake-up is queued, so it can never be part of a deadlock and
// records no reason.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.e.unpark(p, p.e.now+d)
	p.suspend()
}

// Run executes events until the queue drains. A panic in a process
// surfaces from Run, and Run panics with a deadlock report if processes
// other than servers remain blocked with no pending events. Before Run
// returns (or panics) every process still parked — servers parked
// mid-handler, after a clean run — is unwound, so nothing of the
// simulation executes afterwards and the engine and everything it
// references can be garbage-collected; Run may therefore be called at
// most once.
func (e *Engine) Run() {
	if e.ran {
		panic("sim: Run called twice")
	}
	e.ran = true
	defer e.unwind()
	for e.queue.Len() > 0 {
		// The event stays at the root while it runs: the first thing it
		// queues (a sleeper's wake-up, a callback's successor) takes its
		// place with one sift, and settle pops it if nothing did.
		ev := e.queue.peek()
		e.now = ev.At
		switch ev.Kind {
		case evProc:
			e.resume(e.procs.at[ev.To])
		case evCall:
			e.calls.take(ev.To)()
		case evPut:
			put := e.puts.take(ev.To)
			put.m.deliver(put.i)
		}
		e.queue.settle()
	}
	if e.live > 0 {
		panic(e.deadlockReport())
	}
}

// resume runs process p from its start or resume event until it parks
// or returns. A server that returns has gone idle, not finished: it
// keeps its slot, and only its coroutine is handed on.
func (e *Engine) resume(p *Proc) {
	p.pending = false
	c := p.c
	if c == nil {
		c = e.carrier()
		c.p, p.c, p.next = p, c, c.next
	}
	p.next()
	if p.c == nil { // returned, not parked
		e.idle = append(e.idle, c)
		if !p.daemon {
			e.procs.take(p.slot)
			e.live--
		}
	}
}

// unwind stops the coroutine of every process that is still parked; its
// deferred calls run (see errShutdown) before stop returns. Then it puts
// the idle carriers on the shelf, as many as fit under its bound, and
// ends the rest.
func (e *Engine) unwind() {
	for _, p := range e.procs.at {
		if p != nil && p.c != nil {
			p.c.stop()
		}
	}
	shelf.Lock()
	shelf.max = max(shelf.max, e.carriers)
	n := min(len(e.idle), shelf.max-len(shelf.idle))
	shelf.idle = append(shelf.idle, e.idle[:n]...)
	shelf.Unlock()
	for _, c := range e.idle[n:] {
		c.stop()
	}
	e.idle = nil
}

// deadlockReport lists the blocked processes other than servers in spawn
// order with what each one waits for.
func (e *Engine) deadlockReport() string {
	var blocked []*Proc
	for _, p := range e.procs.at {
		if p != nil && !p.daemon {
			blocked = append(blocked, p)
		}
	}
	sort.Slice(blocked, func(i, j int) bool { return blocked[i].born < blocked[j].born })
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v; blocked process(es):", e.now)
	for _, p := range blocked {
		on := ""
		if p.on != nil {
			on = *p.on
		}
		fmt.Fprintf(&b, "\n  %s: %s%s", p.name, blockText[p.why], on)
	}
	return b.String()
}
