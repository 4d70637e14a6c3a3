package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(3 * Microsecond)
		end = p.Now()
	})
	e.Run()
	if end != 8*Microsecond {
		t.Fatalf("end = %v, want 8us", end)
	}
}

func TestSpawnStartsAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var childStart Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2 * Millisecond)
		e.Spawn("child", func(c *Proc) {
			childStart = c.Now()
		})
	})
	e.Run()
	if childStart != 2*Millisecond {
		t.Fatalf("child started at %v, want 2ms", childStart)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() string {
		var log []string
		e := NewEngine()
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(i+1) * Microsecond)
					log = append(log, fmt.Sprintf("p%d@%v", i, p.Now()))
				}
			})
		}
		e.Run()
		return strings.Join(log, " ")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic run:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.HasPrefix(first, "p0@1.00us p1@2.00us p0@2.00us") {
		t.Fatalf("unexpected order: %s", first)
	}
}

func TestSameInstantEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(Microsecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestFutureWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	f := e.NewFuture()
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			if got := f.Await(p); got != "payload" {
				t.Errorf("value = %v", got)
			}
			woke[i] = p.Now()
		})
	}
	e.Spawn("completer", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		f.Complete("payload")
	})
	e.Run()
	for i, w := range woke {
		if w != 7*Microsecond {
			t.Fatalf("waiter %d woke at %v", i, w)
		}
	}
}

func TestFutureAwaitAfterCompleteReturnsImmediately(t *testing.T) {
	e := NewEngine()
	f := e.NewFuture()
	e.Spawn("a", func(p *Proc) {
		f.Complete(42)
		before := p.Now()
		if v := f.Await(p); v != 42 {
			t.Errorf("value = %v", v)
		}
		if p.Now() != before {
			t.Errorf("await of done future advanced time")
		}
	})
	e.Run()
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		f := e.NewFuture()
		f.Complete(nil)
		f.Complete(nil)
	})
	e.Run()
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	var m Mailbox[int]
	m.Init(e, "m")
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, m.Get(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Microsecond)
			m.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	e := NewEngine()
	m := e.NewMailbox("m")
	var when Time
	e.Spawn("consumer", func(p *Proc) {
		m.Get(p)
		when = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Sleep(9 * Microsecond)
		m.Put("x")
	})
	e.Run()
	if when != 9*Microsecond {
		t.Fatalf("consumer resumed at %v", when)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(10 * Microsecond)
			r.Release()
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 20 * Microsecond, 30 * Microsecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEngine()
	r := e.NewResource("r", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			r.Use(p, func() { p.Sleep(10 * Microsecond) })
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{10 * Microsecond, 10 * Microsecond, 20 * Microsecond, 20 * Microsecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

// TestDeadlockReport pins the report: blocked non-daemon processes in
// spawn order (not table order: "early" frees the slot "recv" reuses),
// each with what it waits for; daemons and sleepers are not in it.
func TestDeadlockReport(t *testing.T) {
	const want = `sim: deadlock at 3.00us; blocked process(es):
  await: await future
  acquire: acquire node0.gpu0.tx
  recv: recv rank3.am`
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic = %v\nwant %s", r, want)
		}
	}()
	e := NewEngine()
	f := e.NewFuture()
	m := e.NewMailbox("rank3.am")
	r := e.NewResource("node0.gpu0.tx", 1)
	e.Spawn("early", func(p *Proc) {})
	e.Spawn("await", func(p *Proc) { f.Await(p) })
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(3 * Microsecond)
	})
	e.Spawn("acquire", func(p *Proc) {
		p.Sleep(Microsecond)
		r.Acquire(p)
		t.Error("acquired a resource nobody released")
	})
	new(Server[any]).Init(e, "daemon", func(*Proc, any) {})
	e.Spawn("spawner", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		e.Spawn("recv", func(p *Proc) { m.Get(p) })
	})
	e.Run()
}

// TestDeadlockReportNamesEmbeddedMailbox: a process blocked on a typed
// mailbox that is a field of a larger record — how every protocol queue
// is held — is reported with that mailbox's name, as one from
// NewMailbox is.
func TestDeadlockReportNamesEmbeddedMailbox(t *testing.T) {
	const want = `sim: deadlock at 1.00us; blocked process(es):
  rank1.recv.0: recv recv.events`
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic = %v\nwant %s", r, want)
		}
	}()
	e := NewEngine()
	rec := new(struct {
		id     int
		events Mailbox[int]
		acks   Mailbox[int]
	})
	rec.events.Init(e, "recv.events")
	rec.acks.Init(e, "recv.acks")
	e.Spawn("rank1.recv.0", func(p *Proc) {
		rec.acks.PutAfter(Microsecond, 0)
		rec.acks.Get(p)
		rec.events.Get(p)
	})
	e.Run()
}

// TestProcessPanicPropagates: a panic in a process surfaces from Run with
// the process named, and the other parked processes are unwound (their
// deferred calls run) before it does.
func TestProcessPanicPropagates(t *testing.T) {
	unwound := false
	defer func() {
		if r := recover(); r != `sim: process "bad" panicked: boom` {
			t.Fatalf("panic = %v", r)
		}
		if !unwound {
			t.Fatal("parked process was not unwound before Run panicked")
		}
	}()
	e := NewEngine()
	e.Spawn("parked", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(Second)
	})
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	e.Run()
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Sleep(Microsecond) })
	e.Run()
	defer func() {
		if r := recover(); r != "sim: Run called twice" {
			t.Fatalf("panic = %v", r)
		}
	}()
	e.Run()
}

// TestRunUnwindsParkedDaemons: when Run returns nothing of the simulation
// is left running — every server parked mid-handler has been unwound
// through its deferred calls, every idle carrier has gone to the shelf
// or been stopped, and the only goroutines that outlive the call are the
// shelved carriers, within the shelf's bound. Idle servers hold no
// coroutine.
func TestRunUnwindsParkedDaemons(t *testing.T) {
	base, shelved := settledGoroutines(), shelfLen()
	e := NewEngine()
	never := e.NewFuture()
	unwound := 0
	work := make([]Server[any], 16)
	for i := range work {
		work[i].Init(e, fmt.Sprintf("d%d", i), func(p *Proc, _ any) {
			defer func() { unwound++ }()
			never.Await(p)
		})
	}
	e.Spawn("client", func(p *Proc) {
		for i := range work[:8] { // the other eight stay idle
			work[i].Put(1)
		}
		// Five short processes at once, all finished before the end:
		// their carriers are idle, not parked, when Run shuts down.
		for i := 0; i < 5; i++ {
			e.Spawn("short", func(p *Proc) { p.Sleep(Nanosecond) })
		}
		p.Sleep(Microsecond)
		if len(e.idle) != 5 {
			t.Errorf("%d idle carriers after five short processes, want 5", len(e.idle))
		}
	})
	e.Run()
	if unwound != 8 {
		t.Fatalf("%d of 8 parked servers unwound when Run returned", unwound)
	}
	// The client, the eight parked servers and the five short processes.
	if want := 14; e.carriers != want {
		t.Errorf("%d coroutines created, want %d: an idle server holds none", e.carriers, want)
	}
	if len(e.idle) != 0 {
		t.Fatalf("%d idle carriers left after Run", len(e.idle))
	}
	added := shelfLen() - shelved
	if n := settledGoroutines(); n > base+added {
		t.Fatalf("%d goroutines after Run, %d before and %d carriers shelved", n, base, added)
	}
	checkShelfBound(t)
}

// shelfLen returns how many idle carriers the shelf holds.
func shelfLen() int {
	shelf.Lock()
	defer shelf.Unlock()
	return len(shelf.idle)
}

// checkShelfBound fails t if the shelf holds more carriers than the most
// one engine has taken, or one still carrying a process.
func checkShelfBound(t *testing.T) {
	t.Helper()
	shelf.Lock()
	defer shelf.Unlock()
	if len(shelf.idle) > shelf.max {
		t.Errorf("shelf holds %d carriers, bound %d", len(shelf.idle), shelf.max)
	}
	for _, c := range shelf.idle {
		if c.p != nil {
			t.Fatalf("shelved carrier still names process %q", c.p.name)
		}
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for ten reads a millisecond apart, or after a second: a goroutine an
// earlier test left exiting is not counted, one that stays is.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, end := 0, time.Now().Add(time.Second); still < 10 && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestCarrierReuse: a thousand short processes one after another, beside
// a few long-lived ones, run on as many coroutines as were ever alive at
// once, not on a thousand.
func TestCarrierReuse(t *testing.T) {
	e := NewEngine()
	const long, short = 3, 1000
	ran := 0
	for i := 0; i < long; i++ {
		e.Spawn("long", func(p *Proc) { p.Sleep(Second) })
	}
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < short; i++ {
			e.Spawn("short", func(p *Proc) {
				p.Sleep(Nanosecond)
				ran++
			})
			p.Sleep(2 * Nanosecond)
		}
	})
	e.Run()
	if ran != short {
		t.Fatalf("%d of %d short processes ran", ran, short)
	}
	// The long ones, the driver, and one carrier for every short process.
	if want := long + 2; e.carriers != want {
		t.Fatalf("%d coroutines created for at most %d concurrent processes", e.carriers, want)
	}
}

// TestCarrierPanicNamesProcess: the panic report names the process that
// panicked, not an earlier one the same carrier ran.
func TestCarrierPanicNamesProcess(t *testing.T) {
	defer func() {
		if r := recover(); r != `sim: process "third" panicked: boom` {
			t.Fatalf("panic = %v", r)
		}
	}()
	e := NewEngine()
	e.Spawn("driver", func(p *Proc) {
		e.Spawn("first", func(p *Proc) {})
		p.Sleep(Nanosecond)
		e.Spawn("second", func(p *Proc) { p.Sleep(Nanosecond) })
		p.Sleep(2 * Nanosecond)
		e.Spawn("third", func(p *Proc) {
			p.Sleep(Nanosecond)
			panic("boom")
		})
		p.Sleep(Microsecond)
		t.Error("driver outlived the panic")
	})
	defer func() {
		if e.carriers != 2 {
			t.Errorf("%d coroutines, want the driver's and one reused by all three", e.carriers)
		}
	}()
	e.Run()
}

// BenchmarkSpawnFinish is the cost of one short process from Spawn to
// its return: what an eager receive or an active message pays the
// engine.
func BenchmarkSpawnFinish(b *testing.B) {
	e := NewEngine()
	e.Spawn("driver", func(p *Proc) {
		short := func(p *Proc) { p.Sleep(Nanosecond) }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Spawn("short", short)
			p.Sleep(2 * Nanosecond)
		}
	})
	e.Run()
}

// TestFinishedProcSlotReused: a long chain of short-lived processes keeps
// reusing one table slot, and a stale handle cannot resume its successor.
func TestFinishedProcSlotReused(t *testing.T) {
	e := NewEngine()
	var first *Proc
	var chain func(n int) func(p *Proc)
	chain = func(n int) func(p *Proc) {
		return func(p *Proc) {
			p.Sleep(Nanosecond)
			if n > 0 {
				e.Spawn("link", chain(n-1))
			}
		}
	}
	first = e.Spawn("link", chain(100))
	e.Spawn("watch", func(p *Proc) {
		p.Sleep(Microsecond)
		if n := len(e.procs.at); n > 3 {
			t.Errorf("table grew to %d slots for at most 3 live processes", n)
		}
		defer func() {
			if recover() == nil {
				t.Error("resuming a finished process did not panic")
			}
		}()
		e.unpark(first, e.now)
	})
	e.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{1500 * Picosecond, "1.50ns"},
		{2500 * Nanosecond, "2.50us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeForBytesRoundTrip(t *testing.T) {
	d := TimeForBytes(1<<30, 10) // 1 GiB at 10 GB/s
	if got := GBps(1<<30, d); got < 9.99 || got > 10.01 {
		t.Fatalf("GBps = %v", got)
	}
}

func TestDaemonDoesNotBlockCompletion(t *testing.T) {
	e := NewEngine()
	var m Server[any]
	var served int
	m.Init(e, "worker", func(p *Proc, _ any) {
		p.Sleep(Microsecond)
		served++
	})
	e.Spawn("client", func(p *Proc) {
		m.Put(1)
		m.Put(2)
		p.Sleep(10 * Microsecond)
	})
	e.Run() // must terminate despite the blocked daemon
	if served != 2 {
		t.Fatalf("served = %d", served)
	}
}

func TestAfterRunsCallbacks(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(5*Microsecond, func() { at = e.Now() })
	e.Spawn("keepalive", func(p *Proc) { p.Sleep(10 * Microsecond) })
	e.Run()
	if at != 5*Microsecond {
		t.Fatalf("callback at %v", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		e.After(-20*Microsecond, func() {})
	})
	e.Run()
}

func TestYieldOrdersWithQueuedEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("first", func(p *Proc) {
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "resumed")
	})
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "resumed" {
		t.Fatalf("order = %v", order)
	}
}

// Yield lets every other event already scheduled for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Use runs fn while holding one slot.
func (r *Resource) Use(p *Proc, fn func()) {
	r.Acquire(p)
	defer r.Release()
	fn()
}
