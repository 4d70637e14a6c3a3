package cuda

import (
	"testing"

	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

func newCtx(t *testing.T, ngpus int) (*sim.Engine, *Ctx) {
	t.Helper()
	e := sim.NewEngine()
	n := pcie.NewNode(e, 0, ngpus, gpu.KeplerK40(), pcie.DefaultParams())
	return e, NewCtx(n)
}

func TestMemcpyDirections(t *testing.T) {
	e, c := newCtx(t, 2)
	h := c.MallocHost(1 << 20)
	d0 := c.Malloc(0, 1<<20)
	d1 := c.Malloc(1, 1<<20)
	d0b := c.Malloc(0, 1<<20)
	mem.FillPattern(h, 1)
	e.Spawn("host", func(p *sim.Proc) {
		c.Memcpy(p, d0, h)   // H2D
		c.Memcpy(p, d1, d0)  // P2P
		c.Memcpy(p, d0b, d0) // D2D same device
		mem.Fill(h, 0)
		c.Memcpy(p, h, d1) // D2H
	})
	e.Run()
	ref := c.Node().Host().Alloc(1<<20, 256)
	mem.FillPattern(ref, 1)
	for _, b := range []mem.Buffer{d0, d1, d0b, h} {
		if !mem.Equal(ref, b) {
			t.Fatalf("buffer %v corrupted", b)
		}
	}
}

func TestMemcpyH2DTiming(t *testing.T) {
	e, c := newCtx(t, 1)
	h := c.MallocHost(10 << 20)
	d := c.Malloc(0, 10<<20)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		t0 := p.Now()
		c.Memcpy(p, d, h)
		dur = p.Now() - t0
	})
	e.Run()
	gp := c.Node().GPU(0).Params()
	path := c.Node().H2D(0)
	// Cut-through forwarding: the path takes the bottleneck hop's
	// serialization time, not the sum of hops.
	want := gp.MemcpyOverhead +
		sim.TimeForBytes(10<<20, c.Node().Params().RootGBps) +
		path.Latency()
	if dur != want {
		t.Fatalf("dur = %v, want %v", dur, want)
	}
}

func TestMemcpy2DMovesRows(t *testing.T) {
	e, c := newCtx(t, 1)
	// 4 rows of 32 bytes with pitch 64 -> packed 32-byte rows on host.
	d := c.Malloc(0, 256)
	h := c.MallocHost(128)
	mem.FillPattern(d, 2)
	e.Spawn("host", func(p *sim.Proc) {
		c.Memcpy2D(p, h, 32, d, 64, 32, 4)
	})
	e.Run()
	for r := int64(0); r < 4; r++ {
		if !mem.Equal(h.Slice(r*32, 32), d.Slice(r*64, 32)) {
			t.Fatalf("row %d mismatch", r)
		}
	}
}

func TestMemcpy2DAlignmentCliff(t *testing.T) {
	e, c := newCtx(t, 1)
	rows := int64(1024)
	d := c.Malloc(0, rows*8192)
	h := c.MallocHost(rows * 8192)
	var aligned, misaligned sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		t0 := p.Now()
		c.Memcpy2D(p, h, 4096, d, 8192, 4096, rows) // 4096 % 64 == 0
		aligned = p.Now() - t0
		t0 = p.Now()
		c.Memcpy2D(p, h, 4088, d, 8192, 4088, rows) // 4088 % 64 != 0
		misaligned = p.Now() - t0
	})
	e.Run()
	// Misaligned moves slightly fewer bytes but must be far slower.
	if misaligned < aligned*3 {
		t.Fatalf("no alignment cliff: aligned %v, misaligned %v", aligned, misaligned)
	}
}

func TestMemcpy2DSameDeviceNoCliff(t *testing.T) {
	e, c := newCtx(t, 1)
	rows := int64(1024)
	src := c.Malloc(0, rows*512)
	dst := c.Malloc(0, rows*512)
	var aligned, misaligned sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		t0 := p.Now()
		c.Memcpy2D(p, dst, 256, src, 512, 256, rows)
		aligned = p.Now() - t0
		t0 = p.Now()
		c.Memcpy2D(p, dst, 248, src, 512, 248, rows)
		misaligned = p.Now() - t0
	})
	e.Run()
	if misaligned > aligned*13/10 {
		t.Fatalf("unexpected d2d cliff: aligned %v, misaligned %v", aligned, misaligned)
	}
}

func TestIpcOpenCachesMapCost(t *testing.T) {
	e, cA := newCtx(t, 1)
	cB := NewCtx(cA.Node()) // second process, same node
	buf := cA.Malloc(0, 4096)
	mem.FillPattern(buf, 3)
	h := cA.IpcGetMemHandle(buf)
	var first, second sim.Time
	e.Spawn("peer", func(p *sim.Proc) {
		t0 := p.Now()
		m1, _ := cB.IpcOpenMemHandle(p, h)
		first = p.Now() - t0
		t0 = p.Now()
		m2, _ := cB.IpcOpenMemHandle(p, h)
		second = p.Now() - t0
		if !mem.Equal(m1, buf) || !mem.Equal(m2, buf) {
			t.Errorf("mapped buffer contents differ")
		}
	})
	e.Run()
	if first != cA.Node().Params().IPCMapCost {
		t.Fatalf("first open cost %v", first)
	}
	if second != 0 {
		t.Fatalf("second open cost %v, want cached 0", second)
	}
}

func TestMemcpyAsyncOverlapsWithHost(t *testing.T) {
	e, c := newCtx(t, 1)
	h := c.MallocHost(50 << 20)
	d := c.Malloc(0, 50<<20)
	var hostFree, done sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s gpu.Stream
		s.Init(c.Node().GPU(0), "s")
		f := c.MemcpyAsync(&s, d, h)
		hostFree = p.Now()
		f.Await(p)
		done = p.Now()
	})
	e.Run()
	if hostFree != 0 {
		t.Fatalf("async memcpy blocked the host until %v", hostFree)
	}
	if done < sim.TimeForBytes(50<<20, c.Node().Params().RootGBps) {
		t.Fatalf("completed too fast: %v", done)
	}
}

func TestCrossNodeBufferPanics(t *testing.T) {
	e := sim.NewEngine()
	n0 := pcie.NewNode(e, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	n1 := pcie.NewNode(e, 1, 1, gpu.KeplerK40(), pcie.DefaultParams())
	c := NewCtx(n0)
	foreign := n1.GPU(0).Mem().Alloc(16, 1)
	local := c.MallocHost(16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for cross-node buffer")
		}
	}()
	e.Spawn("host", func(p *sim.Proc) {
		c.Memcpy(p, local, foreign)
	})
	e.Run()
}

func TestMemcpy2DAsyncOnStream(t *testing.T) {
	e, c := newCtx(t, 1)
	d := c.Malloc(0, 1<<20)
	h := c.MallocHost(1 << 20)
	mem.FillPattern(d, 8)
	e.Spawn("host", func(p *sim.Proc) {
		var s gpu.Stream
		s.Init(c.Node().GPU(0), "s")
		f := c.Memcpy2DAsync(&s, h, 1024, d, 2048, 1024, 512)
		f.Await(p)
	})
	e.Run()
	for r := int64(0); r < 512; r += 100 {
		if !mem.Equal(h.Slice(r*1024, 1024), d.Slice(r*2048, 1024)) {
			t.Fatalf("row %d mismatch", r)
		}
	}
}

func TestHostToHostMemcpy(t *testing.T) {
	e, c := newCtx(t, 1)
	a := c.MallocHost(1 << 20)
	b := c.MallocHost(1 << 20)
	mem.FillPattern(a, 12)
	e.Spawn("host", func(p *sim.Proc) { c.Memcpy(p, b, a) })
	e.Run()
	if !mem.Equal(a, b) {
		t.Fatal("host-host memcpy failed")
	}
}

func TestCopyOverlapsKernelAcrossStreams(t *testing.T) {
	// The paper's central overlap assumption: a PCIe copy on one stream
	// proceeds concurrently with a DRAM-bound kernel on another, so the
	// pair takes ~max, not the sum.
	e, c := newCtx(t, 1)
	d := c.Node().GPU(0)
	n := int64(64 << 20)
	host := c.MallocHost(n)
	dev := c.Malloc(0, n)
	src := c.Malloc(0, n)
	dst := c.Malloc(0, n)
	var both sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var copyStream gpu.Stream
		copyStream.Init(d, "copy")
		var kernStream gpu.Stream
		kernStream.Init(d, "kern")
		k := &gpu.Kernel{Kind: gpu.VectorKernel, Src: src, Dst: dst}
		for off := int64(0); off < n; off += 1 << 20 {
			k.Units = append(k.Units, gpu.Unit{SrcOff: off, DstOff: off, Len: 1 << 20})
		}
		t0 := p.Now()
		f1 := c.MemcpyAsync(&copyStream, dev, host)
		f2 := d.Launch(&kernStream, k)
		sim.AwaitAll(p, f1, f2)
		both = p.Now() - t0
	})
	e.Run()
	wire := sim.TimeForBytes(n, c.Node().Params().RootGBps) // ~6.7 ms
	kern := sim.TimeForBytes(2*n, 380*0.94)                 // ~0.38 ms
	if both > wire+kern/2 {
		t.Fatalf("no overlap: both=%v, wire=%v, kernel=%v", both, wire, kern)
	}
	if both < wire {
		t.Fatalf("faster than the wire: %v < %v", both, wire)
	}
}
