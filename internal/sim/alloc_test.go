package sim

import (
	"fmt"
	"testing"
)

// TestQueuesAllocateNothingInSteadyState pins what the fifo buys: a
// one-deep mailbox (both its item queue and its waiter queue), a
// resource handed from one process to another, and a transfer over a
// path all run without allocating once their arrays exist; what the
// inline element buys: a fresh mailbox that is never more than one deep
// (a per-message mailbox) costs its own record and nothing else, with a
// delayed Put, a typed event, among its deliveries; and what the
// pending table buys: delayed Puts of a three-word value into a typed
// mailbox, two in flight at once, are never boxed; what serving buys:
// restarting an idle server takes a parked coroutine, not a new one;
// what Start buys: a record that is its own process, started again once
// it has finished, costs nothing either; and what a path's inline span
// handles buy: a transfer over a four-hop path with a recorder attached
// costs nothing beyond the recorder's own span arrays, whose growth
// amortizes to nothing per run.
func TestQueuesAllocateNothingInSteadyState(t *testing.T) {
	e := NewEngine()
	var srv Server[any]
	mb := &srv.Mailbox
	res := e.NewResource("res", 1)
	pa := NewPath(e.NewLink("b", 1, 0), e.NewLink("a", 1, 0))
	msg := interface{}(&struct{}{})
	type am struct {
		to   *int
		a, b int
	}
	var typed Mailbox[am]
	typed.Init(e, "typed")
	stop := false
	var got [8]float64
	rec := &counter{}
	// The server of mb is always idle when a message arrives, so each
	// Put pops the waiter queue and restarts it, and its run pops the
	// item queue (or finds it emptied by the measured Get and goes idle).
	handled := 0
	srv.Init(e, "server", func(*Proc, any) { handled++ })
	// The holder owns the resource two ticks out of three; the measured
	// process asks for it while it is held and is handed it on Release.
	e.Spawn("holder", func(p *Proc) {
		for !stop {
			res.Acquire(p)
			p.Sleep(2)
			res.Release()
			p.Sleep(1)
		}
	})
	e.Spawn("measured", func(p *Proc) {
		got[0] = testing.AllocsPerRun(100, func() {
			mb.Put(msg)
			mb.Get(p)
		})
		got[1] = testing.AllocsPerRun(100, func() {
			mb.Put(msg)
			p.Sleep(1)
		})
		got[2] = testing.AllocsPerRun(100, func() {
			res.Acquire(p)
			res.Release()
			p.Sleep(1)
		})
		got[3] = testing.AllocsPerRun(100, func() { pa.Transfer(p, 3) })
		got[4] = testing.AllocsPerRun(100, func() {
			fresh := e.NewMailbox("fresh")
			fresh.Put(msg)
			fresh.Get(p)
			fresh.PutAfter(1, msg)
			fresh.Get(p)
		}) - 1
		got[5] = testing.AllocsPerRun(100, func() {
			typed.PutAfter(2, am{a: 1})
			typed.PutAfter(1, am{a: 2})
			typed.Get(p)
			typed.Get(p)
		})
		got[6] = testing.AllocsPerRun(100, func() {
			e.Start(&rec.proc, "rec", rec)
			p.Sleep(1)
		})
		stop = true
	})
	e.Run()
	traced := NewEngine()
	NewRecorder(traced)
	hops := make([]*Link, maxSpanHops)
	for i := range hops {
		hops[i] = traced.NewLink(fmt.Sprintf("hop%d", i), 1, 0)
	}
	tracedPath := NewPath(hops...)
	traced.Spawn("traced", func(p *Proc) {
		got[7] = testing.AllocsPerRun(100, func() { tracedPath.Transfer(p, 3) })
	})
	traced.Run()
	for i, what := range []string{"Put then Get", "Put to an idle server (a restart)", "resource hand-over", "path transfer", "fresh one-deep mailbox, beyond its record", "typed delayed Puts", "a record started again", "traced four-hop path transfer"} {
		if got[i] != 0 {
			t.Errorf("%s: %v allocations per run, want 0", what, got[i])
		}
	}
	if handled != 101 { // the restarts; AllocsPerRun warms up with one run
		t.Errorf("the server handled %d messages, want 101", handled)
	}
}

// TestFifoKeepsOrderAndBoundsItsArray drives a queue that never drains:
// order holds and the array stays proportional to the backlog, not to
// the traffic through it.
func TestFifoKeepsOrderAndBoundsItsArray(t *testing.T) {
	var q fifo[int]
	in, out := 0, 0
	push := func() { q.push(in); in++ }
	pop := func() {
		if v := q.pop(); v != out {
			t.Fatalf("popped %d, want %d", v, out)
		}
		out++
	}
	const backlog = 10
	for i := 0; i < backlog; i++ {
		push()
	}
	for i := 0; i < 100000; i++ {
		push()
		pop()
	}
	if q.len() != backlog || cap(q.s) > 8*backlog {
		t.Fatalf("len %d (want %d), array of %d for a backlog of %d", q.len(), backlog, cap(q.s), backlog)
	}
	for q.len() > 0 {
		pop()
	}
	if q.head != 0 || len(q.s) != 0 {
		t.Fatalf("drained queue did not reset: head %d, len %d", q.head, len(q.s))
	}
}

// TestEmbeddedFutureWakesInWaitOrder: a future embedded in a record
// (Init) wakes its waiters in the order they waited, the inline first
// one included, and a wait by one process allocates nothing.
func TestEmbeddedFutureWakesInWaitOrder(t *testing.T) {
	e := NewEngine()
	var rec struct{ done Future }
	rec.done.Init(e)
	var order []int
	for i := 0; i < 3; i++ {
		e.Spawn("waiter", func(p *Proc) {
			rec.done.Await(p)
			order = append(order, i)
		})
	}
	var allocs float64
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(1)
		rec.done.Complete(nil)
		var one struct{ done Future }
		allocs = testing.AllocsPerRun(100, func() {
			one.done.Init(e)
			e.After(1, func() { one.done.Complete(nil) })
			one.done.Await(p)
		}) - 1 // the After closure
	})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("waiters woke in order %v, want [0 1 2]", order)
	}
	if allocs != 0 {
		t.Errorf("a single wait on an embedded future: %v allocations, want 0", allocs)
	}
}

// waiter is a record that runs as a process: it awaits gate, then
// appends its id to order.
type waiter struct {
	proc  Proc
	id    int
	gate  *Future
	order *[]int
}

func (w *waiter) Run(p *Proc) {
	w.gate.Await(p)
	*w.order = append(*w.order, w.id)
}

// TestFutureWaitersAllocateNothing: three processes awaiting one future
// allocate nothing — its queue links through their Procs — and wake in
// the order they waited, round after round.
func TestFutureWaitersAllocateNothing(t *testing.T) {
	e := NewEngine()
	var gate Future
	order := make([]int, 0, 3)
	ws := make([]*waiter, 3)
	for i := range ws {
		ws[i] = &waiter{id: i, gate: &gate, order: &order}
	}
	var allocs float64
	rounds, wrong := 0, 0
	e.Spawn("completer", func(p *Proc) {
		allocs = testing.AllocsPerRun(100, func() {
			gate.Init(e)
			order = order[:0]
			for _, w := range ws {
				e.Start(&w.proc, "waiter", w)
			}
			p.Sleep(1)
			gate.Complete(nil)
			p.Sleep(1)
			rounds++
			if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
				wrong++
			}
		})
	})
	e.Run()
	if rounds != 101 || wrong != 0 {
		t.Errorf("%d of %d rounds woke the waiters out of wait order", wrong, rounds)
	}
	if allocs != 0 {
		t.Errorf("three waits on one future: %v allocations per round, want 0", allocs)
	}
}

// TestServerAllocatesNothing pins what embedding buys: a Server is
// initialised in a record its owner already has, and its first Put and
// the run that handles it cost nothing — no Proc, no closure, no name.
func TestServerAllocatesNothing(t *testing.T) {
	e := NewEngine()
	const runs = 100
	// AllocsPerRun warms up with one run, whose server makes the
	// coroutine every later one restarts on.
	servers := make([]Server[int], runs+1)
	e.procs.at = make([]*Proc, 0, 2*len(servers))
	handled := 0
	handle := func(*Proc, int) { handled++ }
	var got float64
	e.Spawn("owner", func(p *Proc) {
		i := 0
		got = testing.AllocsPerRun(runs, func() {
			s := &servers[i]
			i++
			s.Init(e, "server", handle)
			s.Put(i)
			p.Yield()
		})
	})
	e.Run()
	if got != 0 {
		t.Errorf("Server.Init, Put and handle: %v allocations per run, want 0", got)
	}
	if handled != runs+1 {
		t.Errorf("the servers handled %d messages, want %d", handled, runs+1)
	}
}
