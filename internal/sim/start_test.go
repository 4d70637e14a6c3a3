package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// counter is a record that runs as a process: it counts its runs,
// records a span named span when it has one, and parks on gate when it
// has one.
type counter struct {
	proc Proc
	runs int
	span string
	gate *Future
}

func (c *counter) Run(p *Proc) {
	c.runs++
	if c.span != "" {
		p.Begin(c.span).End()
	}
	if c.gate != nil {
		c.gate.Await(p)
	}
}

// TestStartWhileLivePanics: a record can be started again once its
// process has finished, and Start panics while it is queued, running or
// parked, and on a server's record.
func TestStartWhileLivePanics(t *testing.T) {
	const live = "sim: process c started while it is live"
	panics := func(f func()) (r interface{}) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	e := NewEngine()
	c := &counter{gate: e.NewFuture()}
	var got [4]interface{}
	e.Start(&c.proc, "c", c)
	var self Proc
	e.Start(&self, "self", procFunc(func(*Proc) {
		got[3] = panics(func() { e.Start(&self, "self", procFunc(func(*Proc) {})) }) // running
	}))
	got[0] = panics(func() { e.Start(&c.proc, "c", c) }) // queued
	e.Spawn("starter", func(p *Proc) {
		p.Yield()
		got[1] = panics(func() { e.Start(&c.proc, "c", c) }) // parked
		c.gate.Complete(nil)
		p.Yield()
		c.gate = nil
		e.Start(&c.proc, "c", c) // finished: a new process
	})
	var srv Server[any]
	srv.Init(e, "server", func(*Proc, any) {})
	got[2] = panics(func() { e.Start(&srv.proc, "server", c) })
	e.Run()
	want := []interface{}{live, live, "sim: process server started while it is live", "sim: process self started while it is live"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("case %d: %v, want %v", i, got[i], want[i])
		}
	}
	if c.runs != 2 {
		t.Errorf("the record ran %d times, want 2", c.runs)
	}
}

// TestStartedProcessReportedAndTracked: a process started from a record
// is in a deadlock report under its name, like a spawned one, and records
// its spans on a track of its own.
func TestStartedProcessReportedAndTracked(t *testing.T) {
	e := NewEngine()
	rec := NewRecorder(e)
	stuck := &counter{gate: e.NewFuture()}
	done := &counter{span: "mpi.recv"}
	e.Spawn("spawned", func(p *Proc) {
		p.Begin("work").End()
		stuck.gate.Await(p)
	})
	e.Start(&done.proc, "rank0.recv.1", done)
	e.Start(&stuck.proc, "rank1.eagerRecv", stuck)
	func() {
		defer func() {
			const want = "sim: deadlock at 0ps; blocked process(es):\n  spawned: await future\n  rank1.eagerRecv: await future"
			if r := recover(); r != want {
				t.Errorf("panic = %v\nwant %s", r, want)
			}
		}()
		e.Run()
	}()
	var names []string
	for _, tr := range rec.Tracks() {
		names = append(names, tr.Name)
		if tr.Name == "rank0.recv.1" && (len(tr.Spans) != 1 || tr.Spans[0].Name != "mpi.recv") {
			t.Errorf("the started process's track holds %v, want its one mpi.recv span", tr.Spans)
		}
	}
	if len(names) != 2 || names[0] != "spawned" || names[1] != "rank0.recv.1" {
		t.Errorf("tracks %v, want one for the spawned process and one for the started one", names)
	}
}

// TestRestartedRecordGetsANewTrack: a record started again is a new
// process on the timeline too — its spans go on a track of their own,
// under the name it was started with this time, not on the first
// process's track under the first name.
func TestRestartedRecordGetsANewTrack(t *testing.T) {
	e := NewEngine()
	rec := NewRecorder(e)
	c := &counter{span: "work"}
	e.Start(&c.proc, "first", c)
	e.Spawn("restarter", func(p *Proc) {
		p.Yield()
		e.Start(&c.proc, "second", c)
	})
	e.Run()
	var got []string
	for _, tr := range rec.Tracks() {
		got = append(got, fmt.Sprintf("%s:%d", tr.Name, len(tr.Spans)))
	}
	if strings.Join(got, " ") != "first:1 second:1" {
		t.Errorf("tracks %v, want one span on each of first and second", got)
	}
}

// TestProcSize pins the process record at 96 bytes: records that embed
// one — a receive, a pipelined sender — pay for every word of it. A
// future's waiter link and the pointer to a blocker's name share the
// two words a name string would take.
func TestProcSize(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n != 96 {
		t.Errorf("Proc is %d bytes, want 96", n)
	}
}
