package sim

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_order.txt from this engine")

// orderTranscript runs a seeded scenario in which most things happen at
// the same few instants, so almost every ordering decision falls to the
// engine's tie-break, and returns one "(now, who, step)" line per step.
// Every worker follows a script drawn before Run, so the random stream
// does not depend on the order under test. started counts the children
// started with Start rather than Spawn.
func orderTranscript() (transcript string, started int) {
	rng := rand.New(rand.NewSource(16))
	e := NewEngine()
	var b strings.Builder
	log := func(who, step string) { fmt.Fprintf(&b, "%d %s %s\n", int64(e.Now()), who, step) }

	// Delays and sizes come from a handful of values (1 byte at 1 GB/s
	// is 1 ns) so sleeps, transfers and callbacks keep colliding.
	delay := func() Time { return Time(rng.Intn(3)) * Nanosecond }
	res := e.NewResource("res", 1)
	la := e.NewLink("la", 1, Nanosecond)
	lb := e.NewLink("lb", 1, 0)
	lc := e.NewLink("lc", 2, Nanosecond)
	paths := []*Path{NewPath(la, lb), NewPath(lc, lb)} // cb shares lb, lists it last
	pathNames := []string{"ab", "cb"}
	var srv Server[any]
	mb := &srv.Mailbox
	gates := []*Future{e.NewFuture(), e.NewFuture(), e.NewFuture(), e.NewFuture()}
	// complete opens gate g for its current waiters and, until the closer
	// has run, puts a fresh gate in its place so later awaits block again.
	closing := false
	complete := func(who string, g int, v interface{}) {
		f := gates[g]
		if f.Done() {
			return
		}
		if !closing {
			gates[g] = e.NewFuture()
		}
		log(who, fmt.Sprintf("complete g%d", g))
		f.Complete(v)
	}

	// The server was a loop blocked in mb.Get when the transcript was
	// recorded; served, it must post the same events.
	srv.Init(e, "server", func(p *Proc, v any) {
		log("server", fmt.Sprintf("got %d", v.(int)))
		p.Sleep(Time(v.(int)%3) * Nanosecond)
	})

	const workers, steps = 8, 14
	children := 0
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("w%d", w)
		script := make([]func(p *Proc) string, steps)
		for i := range script {
			d, g, n, tag := delay(), rng.Intn(len(gates)), int64(1+rng.Intn(3)), w*100+i
			switch op := rng.Intn(14); {
			case i == 0 && w < 4: // several waiters on one future
				script[i] = func(p *Proc) string { gates[0].Await(p); return "await g0" }
			case op <= 1:
				script[i] = func(p *Proc) string { p.Sleep(d); return fmt.Sprintf("sleep %d", d) }
			case op == 2:
				script[i] = func(p *Proc) string { p.Yield(); return "yield" }
			case op == 3:
				script[i] = func(p *Proc) string {
					e.After(d, func() { log("cb", fmt.Sprintf("after %d", tag)) })
					return fmt.Sprintf("after %d +%d", tag, d)
				}
			case op == 4:
				script[i] = func(p *Proc) string { mb.Put(tag); return fmt.Sprintf("put %d", tag) }
			case op == 5:
				script[i] = func(p *Proc) string { mb.PutAfter(d, tag); return fmt.Sprintf("putafter %d +%d", tag, d) }
			case op <= 7:
				script[i] = func(p *Proc) string {
					res.Acquire(p)
					log(name, "acquired")
					p.Sleep(d)
					res.Release()
					return fmt.Sprintf("release +%d", d)
				}
			case op <= 9:
				script[i] = func(p *Proc) string {
					paths[tag%2].Occupy(p, n)
					return fmt.Sprintf("occupy %s %d", pathNames[tag%2], n)
				}
			case op == 10:
				script[i] = func(p *Proc) string {
					if tag%2 == 0 { // complete from an engine callback
						e.After(d, func() { complete("cb", g, tag) })
						return fmt.Sprintf("complete g%d +%d", g, d)
					}
					complete(name, g, tag)
					return "completed"
				}
			case op == 11:
				script[i] = func(p *Proc) string { gates[g].Await(p); return fmt.Sprintf("await g%d", g) }
			default:
				script[i] = func(p *Proc) string {
					children++
					cname := fmt.Sprintf("c%d", children)
					body := func(c *Proc) {
						log(cname, "start")
						c.Sleep(0)
						log(cname, "resumed")
						gates[g].Await(c)
						log(cname, fmt.Sprintf("await g%d", g))
					}
					if tag%4 == 0 {
						e.Spawn(cname, body)
						return "spawn " + cname
					}
					if tag%2 == 0 {
						// A record that is its own process: Start posts
						// the start a spawn would.
						started++
						c := &startedChild{body: body}
						e.Start(&c.proc, cname, c)
						return "spawn " + cname
					}
					// A daemon started by hand: a server given one
					// message posts its start where a spawn would.
					var start Server[int]
					start.Init(e, cname, func(c *Proc, _ int) { body(c) })
					start.Put(0)
					return "spawndaemon " + cname
				}
			}
		}
		e.Spawn(name, func(p *Proc) {
			for i, step := range script {
				log(name, fmt.Sprintf("%d %s", i, step(p)))
			}
		})
	}
	// Nothing may stay blocked on a gate no script happened to complete.
	e.Spawn("closer", func(p *Proc) {
		p.Sleep(Microsecond)
		closing = true
		for g := range gates {
			complete("closer", g, nil)
		}
	})
	e.Run()
	log("engine", "done")
	return b.String(), started
}

// startedChild is a record that runs as a process (Engine.Start).
type startedChild struct {
	proc Proc
	body func(p *Proc)
}

func (c *startedChild) Run(p *Proc) { c.body(p) }

// TestEngineOrderTranscript pins the engine's same-instant ordering — the
// (at, schedule sequence) FIFO every golden figure depends on — to a
// transcript recorded from an earlier engine. Some children that were
// spawned when it was recorded are now records started with Start, and
// the transcript must not see it.
func TestEngineOrderTranscript(t *testing.T) {
	const golden = "testdata/engine_order.txt"
	got, started := orderTranscript()
	if started == 0 {
		t.Fatal("the scenario starts no child with Start")
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of transcript>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("transcript diverges at line %d:\n got %q\nwant %q", i+1, gl[i], w)
		}
	}
	t.Fatalf("transcript is %d lines, golden has %d", len(gl), len(wl))
}
