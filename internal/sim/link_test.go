package sim

import (
	"fmt"
	"testing"
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
	pa := &Path{Name: "a->b", Links: []*Link{a, b}}
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
