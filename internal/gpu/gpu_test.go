package gpu

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

func newDev(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	e := sim.NewEngine()
	return e, NewDevice(e, 0, KeplerK40())
}

// contigKernel builds a kernel that copies n bytes as aligned, full units
// of unitLen bytes.
func contigKernel(kind KernelKind, src, dst mem.Buffer, unitLen int64) *Kernel {
	k := &Kernel{Kind: kind, Src: src, Dst: dst}
	n := src.Len()
	for off := int64(0); off < n; off += unitLen {
		l := unitLen
		if off+l > n {
			l = n - off
		}
		k.Units = append(k.Units, Unit{SrcOff: off, DstOff: off, Len: int32(l), Partial: l < unitLen})
	}
	return k
}

func TestKernelMovesBytes(t *testing.T) {
	e, d := newDev(t)
	src := d.Mem().Alloc(4096, 256)
	dst := d.Mem().Alloc(4096, 256)
	mem.FillPattern(src, 1)
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		d.Launch(&s, contigKernel(VectorKernel, src, dst, 1024)).Await(p)
	})
	e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("kernel did not copy data")
	}
	if d.KernelsRun() != 1 {
		t.Fatalf("kernelsRun = %d", d.KernelsRun())
	}
}

func TestVectorKernelNear94Percent(t *testing.T) {
	e, d := newDev(t)
	n := int64(64 << 20) // large enough to amortize launch
	src := d.Mem().Alloc(n, 256)
	dst := d.Mem().Alloc(n, 256)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		t0 := p.Now()
		d.Launch(&s, contigKernel(VectorKernel, src, dst, 32768)).Await(p)
		dur = p.Now() - t0
	})
	e.Run()
	// Effective copy bandwidth counts useful bytes once; raw = 2n.
	gotEff := sim.GBps(n, dur) / (d.Params().DRAMRawGBps / 2)
	if gotEff < 0.92 || gotEff > 0.95 {
		t.Fatalf("vector kernel efficiency = %.3f, want ~0.94", gotEff)
	}
}

func TestDEVKernelPenalties(t *testing.T) {
	e, d := newDev(t)
	n := int64(32 << 20)
	src := d.Mem().Alloc(n+512, 256)
	dst := d.Mem().Alloc(n+512, 256)

	aligned := contigKernel(DEVKernel, src.Slice(0, n), dst.Slice(0, n), 1024)
	// Same shape but every unit misaligned by 8 bytes and marked partial.
	bad := contigKernel(DEVKernel, src.Slice(8, n), dst.Slice(8, n), 1024)
	for i := range bad.Units {
		bad.Units[i].Partial = true
	}

	ta := d.KernelTime(aligned)
	tb := d.KernelTime(bad)
	if tb <= ta {
		t.Fatalf("penalized kernel not slower: %v vs %v", tb, ta)
	}
	// Aligned full units: efficiency ~ DEVKernelEff relative to copy peak.
	effA := float64(2*n) / d.Params().DRAMRawGBps / 1e9 / ta.Seconds()
	if effA < 0.92 || effA > 0.96 {
		t.Fatalf("aligned DEV efficiency = %.3f", effA)
	}
	// Penalized: each 1KB unit pays 384+512 extra raw -> ~70% of aligned.
	ratio := ta.Seconds() / tb.Seconds()
	if ratio < 0.60 || ratio > 0.80 {
		t.Fatalf("penalty ratio = %.3f", ratio)
	}
	_ = e
}

func TestStreamSerializesKernels(t *testing.T) {
	e, d := newDev(t)
	src := d.Mem().Alloc(1<<20, 256)
	dst := d.Mem().Alloc(1<<20, 256)
	var t1, t2 sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		f1 := d.Launch(&s, contigKernel(VectorKernel, src, dst, 65536))
		f2 := d.Launch(&s, contigKernel(VectorKernel, src, dst, 65536))
		f1.Await(p)
		t1 = p.Now()
		f2.Await(p)
		t2 = p.Now()
	})
	e.Run()
	if t2 < 2*t1-sim.Nanosecond {
		t.Fatalf("second kernel overlapped first on same stream: %v vs %v", t1, t2)
	}
}

func TestTwoStreamsShareDRAM(t *testing.T) {
	e, d := newDev(t)
	src := d.Mem().Alloc(64<<20, 256)
	dst1 := d.Mem().Alloc(64<<20, 256)
	dst2 := d.Mem().Alloc(64<<20, 256)
	k1 := contigKernel(VectorKernel, src, dst1, 65536)
	k2 := contigKernel(VectorKernel, src, dst2, 65536)
	solo := d.KernelTime(k1)
	var both sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var sa, sb Stream
		sa.Init(d, "a")
		sb.Init(d, "b")
		fa := d.Launch(&sa, k1)
		fb := d.Launch(&sb, k2)
		fa.Await(p)
		fb.Await(p)
		both = p.Now()
	})
	e.Run()
	// Two DRAM-saturating kernels must take ~2x one kernel, not 1x.
	if both < solo*19/10 {
		t.Fatalf("concurrent kernels did not contend for DRAM: both=%v solo=%v", both, solo)
	}
}

func TestBlockCapSlowsKernels(t *testing.T) {
	_, d := newDev(t)
	src := d.Mem().Alloc(8<<20, 256)
	dst := d.Mem().Alloc(8<<20, 256)
	k := contigKernel(VectorKernel, src, dst, 65536)
	full := d.KernelTime(k)
	d.SetBlockCap(1)
	capped := d.KernelTime(k)
	d.SetBlockCap(0)
	// One block sustains 48 raw GB/s vs 380 peak: ~7.9x slower.
	ratio := capped.Seconds() / full.Seconds()
	if ratio < 6 || ratio > 9 {
		t.Fatalf("block-cap ratio = %.2f", ratio)
	}
}

func TestBackgroundLoadSlowsKernels(t *testing.T) {
	_, d := newDev(t)
	src := d.Mem().Alloc(8<<20, 256)
	dst := d.Mem().Alloc(8<<20, 256)
	k := contigKernel(VectorKernel, src, dst, 65536)
	full := d.KernelTime(k)
	d.SetBackgroundLoad(d.Params().DefaultBlocks/2, 0.5)
	loaded := d.KernelTime(k)
	if loaded < full*18/10 {
		t.Fatalf("background load had no effect: %v vs %v", loaded, full)
	}
}

func TestRequestedBlocksBelowDefault(t *testing.T) {
	// A compute kernel on a requested grid, each on a fresh device: the
	// smaller grid sustains less bandwidth.
	timeOn := func(blocks int) sim.Time {
		e, d := newDev(t)
		var dur sim.Time
		e.Spawn("compute", func(p *sim.Proc) {
			var s Stream
			s.Init(d, "s")
			t0 := p.Now()
			d.Compute(&s, 8<<20, blocks).Await(p)
			dur = p.Now() - t0
		})
		e.Run()
		return dur
	}
	if two, four := timeOn(2), timeOn(4); !(four < two) {
		t.Fatalf("more blocks not faster: 2->%v 4->%v", two, four)
	}
}

func TestCopyD2D(t *testing.T) {
	e, d := newDev(t)
	src := d.Mem().Alloc(1<<20, 256)
	dst := d.Mem().Alloc(1<<20, 256)
	mem.FillPattern(src, 3)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		t0 := p.Now()
		d.CopyD2D(p, dst, src)
		dur = p.Now() - t0
	})
	e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("copy failed")
	}
	want := d.Params().MemcpyOverhead + sim.TimeForBytes(2<<20, d.Params().DRAMRawGBps)
	if dur != want {
		t.Fatalf("dur = %v, want %v", dur, want)
	}
}

func TestZeroCopyKernelLimitedByLink(t *testing.T) {
	e, d := newDev(t)
	host := mem.NewSpace("host", mem.Host, 64<<20)
	src := d.Mem().Alloc(32<<20, 256)
	dst := host.Alloc(32<<20, 256)
	link := e.NewLink("pcie.d2h", 10, 2*sim.Microsecond)
	mem.FillPattern(src, 9)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		k := contigKernel(VectorKernel, src, dst, 65536)
		t0 := p.Now()
		d.LaunchZeroCopy(&s, k, link, k.Bytes()).Await(p)
		dur = p.Now() - t0
	})
	e.Run()
	if !bytes.Equal(src.Bytes(), dst.Bytes()) {
		t.Fatal("zero-copy kernel did not move data")
	}
	wire := sim.TimeForBytes(32<<20, 10)
	if dur < wire {
		t.Fatalf("faster than the wire: %v < %v", dur, wire)
	}
	if dur > wire+wire/5 {
		t.Fatalf("too slow: %v vs wire %v", dur, wire)
	}
}

func TestKernelTimeMatchesLaunch(t *testing.T) {
	e, d := newDev(t)
	src := d.Mem().Alloc(4<<20, 256)
	dst := d.Mem().Alloc(4<<20, 256)
	k := contigKernel(DEVKernel, src, dst, 2048)
	want := d.Params().KernelLaunch + d.KernelTime(k)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		t0 := p.Now()
		d.Launch(&s, k).Await(p)
		dur = p.Now() - t0
	})
	e.Run()
	if dur != want {
		t.Fatalf("dur = %v, want %v", dur, want)
	}
}

func TestAvailableBlocks(t *testing.T) {
	_, d := newDev(t)
	if got := d.availableBlocks(0); got != d.Params().DefaultBlocks {
		t.Fatalf("default = %d", got)
	}
	if got := d.availableBlocks(5); got != 5 {
		t.Fatalf("requested 5 = %d", got)
	}
	d.SetBlockCap(3)
	if got := d.availableBlocks(5); got != 3 {
		t.Fatalf("capped = %d", got)
	}
	d.SetBackgroundLoad(d.Params().DefaultBlocks, 0)
	if got := d.availableBlocks(0); got != 1 {
		t.Fatalf("fully loaded = %d", got)
	}
}

func TestComputeKernelChargesDRAM(t *testing.T) {
	e, d := newDev(t)
	var dur sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		t0 := p.Now()
		d.Compute(&s, 38<<20, 0).Await(p) // ~38 MB raw at 380 GB/s = 100us
		dur = p.Now() - t0
	})
	e.Run()
	want := d.Params().KernelLaunch + sim.TimeForBytes(38<<20, d.Params().DRAMRawGBps)
	if dur != want {
		t.Fatalf("dur = %v, want %v", dur, want)
	}
	if d.KernelsRun() != 1 {
		t.Fatalf("kernelsRun = %d", d.KernelsRun())
	}
}

func TestKernelBytesAccounting(t *testing.T) {
	_, d := newDev(t)
	src := d.Mem().Alloc(10000, 256)
	dst := d.Mem().Alloc(10000, 256)
	k := contigKernel(DEVKernel, src, dst, 1024)
	if k.Bytes() != 10000 {
		t.Fatalf("Bytes = %d", k.Bytes())
	}
}

// TestKernelIsOneLaunch: a Kernel's descriptors move on with its launch,
// so launching it again would charge a kernel's time and copy nothing.
func TestKernelIsOneLaunch(t *testing.T) {
	for _, zeroCopy := range []bool{false, true} {
		e, d := newDev(t)
		src, dst := d.Mem().Alloc(4096, 256), d.Mem().Alloc(4096, 256)
		link := e.NewLink("pcie", 10, 0)
		var got interface{}
		e.Spawn("host", func(p *sim.Proc) {
			var s Stream
			s.Init(d, "s")
			k := contigKernel(VectorKernel, src, dst, 1024)
			d.Launch(&s, k).Await(p)
			defer func() { got = recover() }()
			if zeroCopy {
				d.LaunchZeroCopy(&s, k, link, 4096)
			} else {
				d.Launch(&s, k)
			}
		})
		e.Run()
		if got != "gpu: kernel launched twice" {
			t.Errorf("zeroCopy=%v: second launch: %v, want the panic", zeroCopy, got)
		}
	}
}

// TestKeptKernelRearms: a kept record launches again once re-armed, from
// its own descriptor array and without allocating; it still panics when
// launched twice without a Rearm, and Rearm panics while the record is in
// flight, on a one-shot record and on a retired one.
func TestKeptKernelRearms(t *testing.T) {
	e, d := newDev(t)
	src, dst := d.Mem().Alloc(4096, 256), d.Mem().Alloc(4096, 256)
	panics := func(f func()) (r interface{}) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	const inFlight = "gpu: kernel re-armed in flight or after a one-shot launch"
	var allocs float64
	var got [5]interface{}
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		var k Kernel
		launch := func(fill uint64) {
			mem.FillPattern(src, fill)
			units := k.Rearm(4)
			for i := range units {
				units[i] = Unit{SrcOff: int64(i) * 1024, DstOff: int64(i) * 1024, Len: 1024}
			}
			k.Kind, k.Src, k.Dst = VectorKernel, src, dst
			d.Launch(&s, &k).Await(p)
			if !bytes.Equal(src.Bytes(), dst.Bytes()) {
				t.Errorf("launch with pattern %d did not copy", fill)
			}
		}
		launch(1)
		launch(2)
		array := &k.spent[:1][0]
		allocs = testing.AllocsPerRun(10, func() { launch(3) })
		if &k.spent[:1][0] != array {
			t.Error("a re-armed record changed its descriptor array")
		}
		got[0] = panics(func() { d.Launch(&s, &k) })
		copy(k.Rearm(4), contigKernel(VectorKernel, src, dst, 1024).Units)
		k.Src, k.Dst = src, dst
		d.Launch(&s, &k)
		got[1] = panics(func() { k.Rearm(4) })
		s.Sync(p)
		oneShot := contigKernel(VectorKernel, src, dst, 1024)
		d.Launch(&s, oneShot).Await(p)
		got[2] = panics(func() { oneShot.Rearm(4) })
		k.Retire()
		got[3] = panics(func() { k.Rearm(4) })
		got[4] = panics(func() { d.Launch(&s, &k) })
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("a warmed kept record: %v allocations per re-armed launch, want 0", allocs)
	}
	for i, want := range []interface{}{"gpu: kernel launched twice", inFlight, inFlight, inFlight, "gpu: kernel launched twice"} {
		if got[i] != want {
			t.Errorf("case %d: %v, want the panic %q", i, got[i], want)
		}
	}
}

// TestLaunchBudgetExhausted: a launch that faults on every attempt is
// retried fault.MaxAttempts times, each paying the launch overhead and
// the 2 µs detection, with the doubling backoff between attempts, and
// then panics naming the budget.
func TestLaunchBudgetExhausted(t *testing.T) {
	e, d := newDev(t)
	pl := fault.NewPlan(1, 0)
	pl.Rates[fault.KernelLaunch] = 1.0
	d.SetFaults(fault.NewInjector(pl))
	var msg string
	var end sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		defer func() {
			msg, end = fmt.Sprint(recover()), p.Now()
		}()
		d.launchGate(p, 64)
	})
	e.Run()
	if !strings.Contains(msg, "failed after 10 attempts") {
		t.Fatalf("launch gate did not exhaust a 10-attempt budget: %q", msg)
	}
	backoff := (2 + 4 + 8 + 16 + 32 + 64 + 128 + 250 + 250) * sim.Microsecond
	if want := 10*(d.p.KernelLaunch+2*sim.Microsecond) + backoff; end != want {
		t.Fatalf("exhausted launch took %v, want %v", end, want)
	}
}

// Bytes returns the number of useful bytes the kernel moves.
func (k *Kernel) Bytes() int64 {
	var n int64
	for _, u := range k.Units {
		n += (int64(u.More) + 1) * int64(u.Len)
	}
	return n
}

// TestComputeAllocatesOneObject pins a compute kernel at one object per
// call: its stream op is embedded in a typed record the stream worker
// dispatches on, as it does a Kernel, with no closure. The Kernel record
// is pinned at its size before compute ops were typed (240 bytes): the
// stream op's work is one interface where a kernel pointer and a
// function were, so typing it grew neither record.
func TestComputeAllocatesOneObject(t *testing.T) {
	if n := unsafe.Sizeof(Kernel{}); n != 240 {
		t.Errorf("Kernel is %d bytes, want 240", n)
	}
	e, d := newDev(t)
	var allocs float64
	e.Spawn("host", func(p *sim.Proc) {
		var s Stream
		s.Init(d, "s")
		for range 4 {
			d.Compute(&s, 1<<20, 0).Await(p)
		}
		allocs = testing.AllocsPerRun(20, func() { d.Compute(&s, 1<<20, 0).Await(p) })
	})
	e.Run()
	if allocs != 1 {
		t.Errorf("Compute: %v objects per call, want 1", allocs)
	}
}
