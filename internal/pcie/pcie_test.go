package pcie

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

func newNode(t *testing.T, ngpus int) (*sim.Engine, *Node) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewNode(e, 0, ngpus, gpu.KeplerK40(), DefaultParams())
}

func TestP2PFasterThanHostRouted(t *testing.T) {
	_, n := newNode(t, 2)
	if p2p, h2d := n.P2P(0, 1).Bandwidth(), n.H2D(1).Bandwidth(); p2p <= h2d {
		t.Fatalf("P2P %v not faster than H2D %v", p2p, h2d)
	}
}

func TestTwoD2HShareRootLink(t *testing.T) {
	e, n := newNode(t, 2)
	sz := int64(100 << 20)
	var ends [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("xfer", func(p *sim.Proc) {
			n.D2H(i).Transfer(p, sz)
			ends[i] = p.Now()
		})
	}
	e.Run()
	solo := sim.TimeForBytes(sz, n.Params().RootGBps)
	if ends[1] < 2*solo {
		t.Fatalf("concurrent D2H did not serialize on root: %v vs solo %v", ends[1], solo)
	}
}

func TestP2PPairsDoNotContendWithHostTraffic(t *testing.T) {
	e, n := newNode(t, 3)
	sz := int64(100 << 20)
	var p2pEnd sim.Time
	e.Spawn("p2p", func(p *sim.Proc) {
		n.P2P(0, 1).Transfer(p, sz)
		p2pEnd = p.Now()
	})
	e.Spawn("h2d", func(p *sim.Proc) {
		n.H2D(2).Transfer(p, sz)
	})
	e.Run()
	solo := sim.TimeForBytes(sz, n.Params().SlotGBps) + n.P2P(0, 1).Latency()
	if p2pEnd > solo+sim.Microsecond {
		t.Fatalf("P2P slowed by unrelated host traffic: %v vs %v", p2pEnd, solo)
	}
}

func TestHostCopyMovesBytesAndChargesBus(t *testing.T) {
	e, n := newNode(t, 1)
	a := n.Host().Alloc(1<<20, 256)
	b := n.Host().Alloc(1<<20, 256)
	mem.FillPattern(a, 5)
	var dur sim.Time
	e.Spawn("cp", func(p *sim.Proc) {
		t0 := p.Now()
		n.HostCopy(p, b, a)
		dur = p.Now() - t0
	})
	e.Run()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("copy failed")
	}
	want := sim.TimeForBytes(2<<20, n.Params().HostBusRawGBps) + n.HostBus().Latency()
	if dur != want {
		t.Fatalf("dur = %v, want %v", dur, want)
	}
}

func TestDeviceOf(t *testing.T) {
	_, n := newNode(t, 2)
	if got := n.DeviceOf(n.GPU(1).Mem()); got != 1 {
		t.Fatalf("DeviceOf(gpu1) = %d", got)
	}
	if got := n.DeviceOf(n.Host()); got != -1 {
		t.Fatalf("DeviceOf(host) = %d", got)
	}
}

func TestGPUCopyEngineLinksWired(t *testing.T) {
	_, n := newNode(t, 2)
	for i := 0; i < 2; i++ {
		d := n.GPU(i)
		if d.H2D != n.SlotRx(i) || d.D2H != n.SlotTx(i) {
			t.Fatalf("gpu %d links not wired", i)
		}
	}
}

// TestPathsAreBuiltOnce: a transfer takes the node's path for its
// direction, it does not assemble one — same pointer, same name, every
// time.
func TestPathsAreBuiltOnce(t *testing.T) {
	_, n := newNode(t, 3)
	for i := 0; i < 3; i++ {
		if n.H2D(i) != n.H2D(i) || n.D2H(i) != n.D2H(i) {
			t.Fatalf("gpu %d: H2D or D2H returned two different paths", i)
		}
		for j := 0; j < 3; j++ {
			if i != j && n.P2P(i, j) != n.P2P(i, j) {
				t.Fatalf("P2P(%d,%d) returned two different paths", i, j)
			}
		}
	}
	// A path is its hops in lock order: the root links were created
	// before the slot links, and GPU 0's before GPU 2's.
	for _, tc := range []struct {
		what string
		pa   *sim.Path
		want string
	}{
		{"H2D(2)", n.H2D(2), "[node0.rootTx node0.gpu2.rx]"},
		{"D2H(1)", n.D2H(1), "[node0.rootRx node0.gpu1.tx]"},
		{"P2P(2,0)", n.P2P(2, 0), "[node0.gpu0.rx node0.gpu2.tx]"},
	} {
		var hops []string
		for _, l := range tc.pa.Hops() {
			hops = append(hops, l.Name())
		}
		if got := fmt.Sprint(hops); got != tc.want {
			t.Errorf("%s hops %s, want %s", tc.what, got, tc.want)
		}
	}
}
