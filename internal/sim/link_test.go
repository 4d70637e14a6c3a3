package sim

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

func TestLinkTransferTime(t *testing.T) {
	e := NewEngine()
	l := e.NewLink("pcie", 10, 2*Microsecond) // 10 GB/s
	var end Time
	e.Spawn("a", func(p *Proc) {
		l.Transfer(p, 10*1000*1000*1000) // 10 GB -> 1 s occupancy
		end = p.Now()
	})
	e.Run()
	want := Second + 2*Microsecond
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if l.BytesMoved() != 10*1000*1000*1000 {
		t.Fatalf("bytesMoved = %d", l.BytesMoved())
	}
}

func TestLinkSerializesButPipelinesLatency(t *testing.T) {
	// Two back-to-back transfers: the second starts as soon as the first's
	// occupancy ends, i.e. before the first has fully arrived.
	e := NewEngine()
	l := e.NewLink("l", 1, 50*Microsecond) // 1 GB/s
	n := int64(100 * 1000)                 // 100 KB -> 100 us occupancy
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Spawn(fmt.Sprintf("t%d", i), func(p *Proc) {
			l.Transfer(p, n)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	if ends[0] != 150*Microsecond {
		t.Fatalf("first arrival %v, want 150us", ends[0])
	}
	if ends[1] != 250*Microsecond { // 100+100 occupancy + 50 latency
		t.Fatalf("second arrival %v, want 250us", ends[1])
	}
}

func TestLinkOverheadCharged(t *testing.T) {
	e := NewEngine()
	l := e.NewLink("l", 1, 0)
	l.Overhead = 5 * Microsecond
	var end Time
	e.Spawn("a", func(p *Proc) {
		l.Transfer(p, 1000) // 1 us at 1 GB/s
		end = p.Now()
	})
	e.Run()
	if end != 6*Microsecond {
		t.Fatalf("end = %v, want 6us", end)
	}
}

func TestPathTransfer(t *testing.T) {
	e := NewEngine()
	a := e.NewLink("a", 10, Microsecond)
	b := e.NewLink("b", 5, Microsecond)
	pa := NewPath(a, b)
	var end Time
	e.Spawn("x", func(p *Proc) {
		pa.Transfer(p, 5*1000*1000) // 0.5ms on a, 1ms on b; cut-through = bottleneck
		end = p.Now()
	})
	e.Run()
	want := Millisecond + 2*Microsecond
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if bw := pa.Bandwidth(); bw != 5 {
		t.Fatalf("path bandwidth = %v", bw)
	}
	if lat := pa.Latency(); lat != 2*Microsecond {
		t.Fatalf("path latency = %v", lat)
	}
}

func TestLinkBusyTimeAccounting(t *testing.T) {
	e := NewEngine()
	l := e.NewLink("l", 1, 10*Microsecond)
	e.Spawn("a", func(p *Proc) {
		l.Transfer(p, 1000)
		l.Transfer(p, 2000)
	})
	e.Run()
	if l.BusyTime() != 3*Microsecond {
		t.Fatalf("busy = %v, want 3us", l.BusyTime())
	}
}

// TestPathLocksHopsInCreationOrder: a path given its hops out of creation
// order keeps them in it and locks them in it. While the first-created
// hop is held elsewhere, the path waits for it holding nothing, so a
// transfer over its other hop goes straight through.
func TestPathLocksHopsInCreationOrder(t *testing.T) {
	e := NewEngine()
	a := e.NewLink("a", 1, 0) // 1 GB/s: 1000 bytes occupy 1 us
	b := e.NewLink("b", 1, 0)
	pa := NewPath(b, a)
	if h := pa.Hops(); len(h) != 2 || h[0] != a || h[1] != b {
		t.Fatalf("hops %s then %s, want a then b", h[0].Name(), h[1].Name())
	}
	var pathDone, bDone Time
	e.Spawn("holder", func(p *Proc) { a.HoldFor(p, 0, 10*Microsecond) })
	e.Spawn("path", func(p *Proc) {
		pa.Occupy(p, 1000)
		pathDone = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(Microsecond)
		b.Occupy(p, 1000)
		bDone = p.Now()
	})
	e.Run()
	if bDone != 2*Microsecond || pathDone != 11*Microsecond {
		t.Fatalf("b done at %v (want 2us), path at %v (want 11us)", bDone, pathDone)
	}
}

// TestNamesShareOneString: an owner's names are substrings of one
// allocation.
func TestNamesShareOneString(t *testing.T) {
	var n [3]string
	Names(n[:], "rank12", "", ".am", ".barrier")
	if n != [3]string{"rank12", "rank12.am", "rank12.barrier"} {
		t.Fatalf("names %q", n)
	}
	if got := testing.AllocsPerRun(10, func() { Names(n[:], "rank12", "", ".am", ".barrier") }); got != 1 {
		t.Fatalf("%v allocations, want 1", got)
	}
}

// TestNameSetFormatsOnce: a set formats an owner's names once per
// process, into the name table, and every later call — a later world's,
// on whatever goroutine builds it — hands out the same strings without
// allocating.
func TestNameSetFormatsOnce(t *testing.T) {
	set := NewNameSet([]string{"node", ".gpu"}, ".tx", ".rx")
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range 64 {
				if n := set.Of(id, g%2); n[1] != fmt.Sprintf("node%d.gpu%d.rx", id, g%2) {
					t.Errorf("names %q for ids %d, %d", n, id, g%2)
				}
			}
		}()
	}
	wg.Wait()
	got := set.Of(3, 1)
	if !slices.Equal(got, []string{"node3.gpu1.tx", "node3.gpu1.rx"}) {
		t.Fatalf("names %q", got)
	}
	if again := set.Of(3, 1); unsafe.StringData(again[1]) != unsafe.StringData(got[1]) {
		t.Error("a second call formatted the names again")
	}
	if other := set.Of(1, 3); other[0] != "node1.gpu3.tx" {
		t.Errorf("names %q for ids 1, 3", other)
	}
	if n := testing.AllocsPerRun(10, func() { set.Of(3, 1) }); n != 0 {
		t.Errorf("%v allocations for names already in the table, want 0", n)
	}
}

// Occupy holds the link for the serialization time of n bytes without the
// trailing propagation latency. Use it when the caller accounts for
// latency itself (e.g. a path of several links).
func (l *Link) Occupy(p *Proc, n int64) { l.occupy(p, n) }
