package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// shelfShape is a small simulation whose carriers are reused inside the
// run and left idle at its end: four workers, each handing three short
// processes a message through a server, and the server's handler. It
// returns the engine, not yet run, the order of what ran, and the set
// of carriers the run's processes rode on.
func shelfShape() (*Engine, *[]string, map[*carrier]bool) {
	e := NewEngine()
	log := new([]string)
	used := map[*carrier]bool{}
	note := func(p *Proc, what string) {
		*log = append(*log, fmt.Sprintf("%v %s %s", p.Now(), p.name, what))
		used[p.c] = true
	}
	srv := new(Server[int])
	srv.Init(e, "server", func(p *Proc, v int) {
		note(p, fmt.Sprint("got ", v))
		p.Sleep(Time(v) * Nanosecond)
	})
	for w := 0; w < 4; w++ {
		e.Spawn(fmt.Sprint("worker", w), func(p *Proc) {
			for i := 0; i < 3; i++ {
				v := 10*w + i
				e.Spawn(fmt.Sprint("short", v), func(p *Proc) {
					p.Sleep(Time(v%7) * Nanosecond)
					note(p, "put")
					srv.Put(v)
				})
				p.Sleep(Time(w+1) * Nanosecond)
				note(p, "step")
			}
		})
	}
	return e, log, used
}

// TestCarrierShelfAcrossEngines: an engine's idle carriers outlive it on
// the shelf. A second engine, run on another goroutine, rides the first
// one's carriers and makes no coroutine; engines run at once, one per
// goroutine, give the order one gives alone; and the shelf never holds
// more carriers than the most one engine has taken.
func TestCarrierShelfAcrossEngines(t *testing.T) {
	var (
		first, second  []string
		used1, used2   map[*carrier]bool
		taken1, taken2 int
		pulls          float64
	)
	inGoroutine := func(f func()) {
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		<-done
	}
	inGoroutine(func() {
		e, log, used := shelfShape()
		e.Run()
		first, used1, taken1 = *log, used, e.Coroutines()
	})
	inGoroutine(func() {
		e, log, used := shelfShape()
		e.Run()
		second, used2, taken2 = *log, used, e.Coroutines()

		// Taking as many carriers as the run did, and shelving them
		// again, makes no coroutine: every one comes off the shelf.
		var e2 Engine
		cs := make([]*carrier, taken2)
		pulls = testing.AllocsPerRun(5, func() {
			e2 = Engine{}
			for i := range cs {
				cs[i] = e2.carrier()
			}
			e2.idle = cs
			e2.unwind()
		})
	})
	if !slices.Equal(first, second) {
		t.Fatalf("the second engine's order differs:\n%v\n%v", first, second)
	}
	if taken1 != taken2 || taken1 != len(used1) {
		t.Errorf("engines took %d and %d carriers, the first ran on %d", taken1, taken2, len(used1))
	}
	for c := range used2 {
		if !used1[c] {
			t.Fatal("the second engine made a coroutine the first left on the shelf")
		}
	}
	if pulls != 0 {
		t.Errorf("taking %d shelved carriers: %.0f allocations, want 0", taken2, pulls)
	}

	// Engines at once, one per goroutine, each taking carriers the
	// others shelve.
	const n = 8
	differs := make([][]string, n)
	var wg sync.WaitGroup
	for i := range differs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5 && differs[i] == nil; rep++ {
				e, log, _ := shelfShape()
				e.Run()
				if !slices.Equal(*log, first) {
					differs[i] = *log
				}
			}
		}()
	}
	wg.Wait()
	for i, log := range differs {
		if log != nil {
			t.Fatalf("concurrent engine %d's order differs:\n%v\n%v", i, first, log)
		}
	}
	checkShelfBound(t)
	shelf.Lock()
	defer shelf.Unlock()
	if shelf.max < taken1 {
		t.Errorf("shelf bound %d below the %d carriers one engine took", shelf.max, taken1)
	}
}

// TestTableShelfNamesNoEngine: when Run ends, an engine's event queue
// and slot tables go on the table shelf emptied, so nothing there names
// the engine — not its processes, a server's among them, which keeps its
// slot to the end, its After callbacks or the mailboxes a delayed Put
// was on its way to — and the engine is collected; the next engine
// takes the arrays back.
func TestTableShelfNamesNoEngine(t *testing.T) {
	collected := make(chan struct{})
	func() {
		e := NewEngine()
		var mb Mailbox[int]
		mb.Init(e, "mb")
		var srv Server[int]
		srv.Init(e, "srv", func(*Proc, int) {})
		for i := range 16 {
			e.Spawn("put", func(p *Proc) {
				p.Sleep(Time(i))
				mb.PutAfter(Nanosecond, i)
				srv.PutAfter(Nanosecond, i)
				e.After(Nanosecond, func() {})
			})
		}
		e.Spawn("get", func(p *Proc) {
			for range 16 {
				mb.Get(p)
			}
		})
		runtime.AddCleanup(e, func(c chan struct{}) { close(c) }, collected)
		e.Run()
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if i < 10 {
				continue
			}
			t.Fatal("an engine whose tables are on the shelf is still reachable")
		}
		break
	}
	if e := NewEngine(); cap(e.queue.s) == 0 || cap(e.procs.at) == 0 {
		t.Errorf("the next engine took no shelved tables: queue capacity %d, process table capacity %d", cap(e.queue.s), cap(e.procs.at))
	}
}
