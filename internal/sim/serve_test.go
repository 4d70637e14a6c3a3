package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestServeRestartsAtPutInstant: an idle server restarts at the instant
// of the Put, from an event posted by the Put itself, so it runs before
// anything scheduled for that instant after the Put and after anything
// scheduled before it. A Put made before Run restarts its server at
// time zero.
func TestServeRestartsAtPutInstant(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%v %s", e.Now(), s)) }
	var mb Server[string]
	mb.Init(e, "server", func(p *Proc, v string) { note("handled " + v) })
	var early Server[string]
	early.Init(e, "early", func(p *Proc, v string) { note(v) })
	early.Put("queued before Run")
	e.Spawn("client", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		e.After(0, func() { note("before") })
		mb.Put("a")
		e.After(0, func() { note("after") })
		p.Sleep(Microsecond)
		mb.Put("b")
	})
	e.Run()
	want := "0ps queued before Run|3.00us before|3.00us handled a|3.00us after|4.00us handled b"
	if got := strings.Join(log, "|"); got != want {
		t.Fatalf("log = %s\nwant  %s", got, want)
	}
}

// TestServeParkedHandlerKeepsItsCoroutine: a handler that parks keeps
// the coroutine it runs on, and what is put while it waits is handled in
// the same run, after it, with no restart: one coroutine serves all
// three messages.
func TestServeParkedHandlerKeepsItsCoroutine(t *testing.T) {
	e := NewEngine()
	var mb Server[int]
	var at []Time
	var carriers []*carrier
	mb.Init(e, "server", func(p *Proc, v int) {
		at = append(at, p.Now())
		carriers = append(carriers, p.c)
		p.Sleep(Microsecond)
	})
	e.Spawn("client", func(p *Proc) {
		mb.Put(0)
		p.Sleep(Microsecond / 2)
		mb.Put(1)
		mb.Put(2)
	})
	e.Run()
	if len(at) != 3 || at[0] != 0 || at[1] != Microsecond || at[2] != 2*Microsecond {
		t.Fatalf("handled at %v, want [0 1us 2us]", at)
	}
	if carriers[1] != carriers[0] || carriers[2] != carriers[0] {
		t.Error("the server changed coroutine inside one run")
	}
	if e.carriers != 2 {
		t.Errorf("%d coroutines, want 2: the client's and the server's", e.carriers)
	}
}

// TestServePutAfter: a delayed Put into a server's mailbox restarts an
// idle server when it is delivered, and one delivered while the handler
// is parked waits its turn in the same run.
func TestServePutAfter(t *testing.T) {
	e := NewEngine()
	var mb Server[int]
	got := map[int]Time{}
	mb.Init(e, "server", func(p *Proc, v int) {
		got[v] = p.Now()
		p.Sleep(2 * Microsecond)
	})
	e.Spawn("client", func(p *Proc) {
		mb.PutAfter(Microsecond, 1)
		mb.PutAfter(2*Microsecond, 2) // handler of 1 is parked until 3us
		mb.PutAfter(10*Microsecond, 3)
	})
	e.Run()
	want := map[int]Time{1: Microsecond, 2: 3 * Microsecond, 3: 10 * Microsecond}
	for v, w := range want {
		if got[v] != w {
			t.Errorf("message %d handled at %v, want %v", v, got[v], w)
		}
	}
}

// TestServeNotInDeadlockReport: servers — never used, idle after work,
// or parked mid-handler — keep nothing alive and are in no deadlock
// report; the blocked process is.
func TestServeNotInDeadlockReport(t *testing.T) {
	const want = `sim: deadlock at 1.00us; blocked process(es):
  stuck: recv nobody`
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("panic = %v\nwant %s", r, want)
		}
	}()
	e := NewEngine()
	never := e.NewFuture()
	var boxes [3]Server[any]
	boxes[0].Init(e, "unused", func(*Proc, any) {})
	boxes[1].Init(e, "idle", func(p *Proc, _ any) { p.Sleep(Nanosecond) })
	boxes[2].Init(e, "parked", func(p *Proc, _ any) { never.Await(p) })
	e.Spawn("stuck", func(p *Proc) {
		boxes[1].Put(nil)
		boxes[2].Put(nil)
		p.Sleep(Microsecond)
		e.NewMailbox("nobody").Get(p)
	})
	e.Run()
}
