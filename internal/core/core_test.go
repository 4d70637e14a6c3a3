package core

import (
	"bytes"
	"sync"
	"testing"

	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// rig bundles a one-GPU node and an engine.
type rig struct {
	eng *sim.Engine
	ctx *cuda.Ctx
	e   *Engine
}

func newRig(t testing.TB, opts Options) *rig {
	t.Helper()
	se := sim.NewEngine()
	node := pcie.NewNode(se, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	ctx := cuda.NewCtx(node)
	return &rig{eng: se, ctx: ctx, e: New(ctx, 0, opts)}
}

// skipIfPoolDrops skips an exact allocation pin under the race detector,
// where sync.Pool drops a quarter of what it is given, and a record whose
// first descriptor array was dropped makes one.
func skipIfPoolDrops(t *testing.T) {
	t.Helper()
	var pool sync.Pool
	for i, x := 0, new(int); i < 64; i++ {
		pool.Put(x)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping (-race): allocation counts are not exact")
		}
	}
}

// cpuPack is the reference packing.
var cpuPack = datatype.PackImage

func packOnGPU(t *testing.T, r *rig, dt *datatype.Datatype, count int) (got, want []byte, dur sim.Time) {
	t.Helper()
	data := r.ctx.Malloc(0, dt.Span(count))
	mem.FillPattern(data, 42)
	want = cpuPack(dt, count, data.Bytes())
	dst := r.ctx.Malloc(0, int64(len(want)))
	r.eng.Spawn("pack", func(p *sim.Proc) {
		t0 := p.Now()
		r.e.Pack(p, data, dt, count, dst)
		dur = p.Now() - t0
	})
	r.eng.Run()
	return dst.Bytes(), want, dur
}

func TestPackVectorCorrect(t *testing.T) {
	r := newRig(t, Options{})
	got, want, _ := packOnGPU(t, r, shapes.SubMatrix(40, 30, 64), 1)
	if !bytes.Equal(got, want) {
		t.Fatal("vector pack mismatch")
	}
	if r.e.ConvertedUnits() != 0 {
		t.Fatalf("vector path should not convert units, got %d", r.e.ConvertedUnits())
	}
}

func TestPackTriangularCorrect(t *testing.T) {
	r := newRig(t, Options{})
	got, want, _ := packOnGPU(t, r, shapes.LowerTriangular(50), 1)
	if !bytes.Equal(got, want) {
		t.Fatal("triangular pack mismatch")
	}
	if r.e.ConvertedUnits() == 0 {
		t.Fatal("triangular should use the DEV path")
	}
}

func TestPackMultiCount(t *testing.T) {
	r := newRig(t, Options{})
	dt := datatype.Resized(shapes.LowerTriangular(20), 0, 20*20*8)
	got, want, _ := packOnGPU(t, r, dt, 3)
	if !bytes.Equal(got, want) {
		t.Fatal("multi-count pack mismatch")
	}
}

func TestUnpackRoundTrip(t *testing.T) {
	for _, dt := range []*datatype.Datatype{
		shapes.SubMatrix(16, 12, 32),
		shapes.LowerTriangular(24),
		shapes.Transpose(12),
	} {
		r := newRig(t, Options{})
		count := 1
		src := r.ctx.Malloc(0, dt.Span(count))
		mem.FillPattern(src, 7)
		packed := r.ctx.Malloc(0, dt.Size())
		dst := r.ctx.Malloc(0, dt.Span(count))
		r.eng.Spawn("roundtrip", func(p *sim.Proc) {
			r.e.Pack(p, src, dt, count, packed)
			r.e.Unpack(p, dst, dt, count, packed)
		})
		r.eng.Run()
		if !bytes.Equal(cpuPack(dt, count, dst.Bytes()), cpuPack(dt, count, src.Bytes())) {
			t.Fatalf("%s: roundtrip mismatch", dt.Name())
		}
	}
}

func TestFragmentedPackMatchesWhole(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(64)
	data := r.ctx.Malloc(0, dt.Span(1))
	mem.FillPattern(data, 3)
	want := cpuPack(dt, 1, data.Bytes())

	frag := int64(4096)
	out := r.ctx.Malloc(0, dt.Size())
	r.eng.Spawn("fragpack", func(p *sim.Proc) {
		pk := new(Packer)
		r.e.InitPacker(pk, data, dt, 1)
		var off int64
		for !pk.Done() {
			n := frag
			if rem := pk.Remaining(); n > rem {
				n = rem
			}
			_, fut := pk.PackWith(p, out.Slice(off, n), nil)
			fut.Await(p)
			off += n
		}
	})
	r.eng.Run()
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("fragmented pack mismatch")
	}
}

func TestDEVCacheSpeedsRepeatPacks(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(512)
	data := r.ctx.Malloc(0, dt.Span(1))
	dst := r.ctx.Malloc(0, dt.Size())
	var first, second sim.Time
	r.eng.Spawn("pack", func(p *sim.Proc) {
		t0 := p.Now()
		r.e.Pack(p, data, dt, 1, dst)
		first = p.Now() - t0
		t0 = p.Now()
		r.e.Pack(p, data, dt, 1, dst)
		second = p.Now() - t0
	})
	r.eng.Run()
	if r.e.CacheHits() != 1 {
		t.Fatalf("cache hits = %d", r.e.CacheHits())
	}
	if second >= first {
		t.Fatalf("cached pack not faster: first %v second %v", first, second)
	}
}

func TestPipelineOverlapsConversion(t *testing.T) {
	dt := shapes.LowerTriangular(2048)
	run := func(pipelined bool) sim.Time {
		r := newRig(t, Options{NoPipeline: !pipelined, NoCacheDEV: true})
		_, _, dur := packOnGPU(t, r, dt, 1)
		return dur
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("pipeline not faster: with %v without %v", with, without)
	}
	// Pipelining should hide a large share of conversion: the paper
	// reports almost 2x for triangular (Fig. 7).
	if float64(with) > 0.8*float64(without) {
		t.Fatalf("pipeline speedup too small: with %v without %v", with, without)
	}
}

// TestPacksDoNotQueueBehindApplicationKernels: a zero-copy pack into
// host memory, launched while a long compute kernel the application
// queued on Stream() runs, completes first, because the engine's kernels
// run on a stream of its own. (A pack into device memory would still
// wait for the DRAM port the compute kernel holds.)
func TestPacksDoNotQueueBehindApplicationKernels(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.SubMatrix(256, 256, 512)
	data := r.ctx.Malloc(0, dt.Span(1))
	mem.FillPattern(data, 7)
	dst := r.ctx.MallocHost(dt.Size())
	var computeDoneFirst bool
	r.eng.Spawn("app", func(p *sim.Proc) {
		compute := r.e.Device().Compute(r.e.Stream(), 64<<20, 0)
		r.e.Pack(p, data, dt, 1, dst)
		computeDoneFirst = compute.Done()
		compute.Await(p)
	})
	r.eng.Run()
	if computeDoneFirst {
		t.Error("the pack completed after the compute kernel queued before it")
	}
	if !bytes.Equal(dst.Bytes(), cpuPack(dt, 1, data.Bytes())) {
		t.Error("packed bytes differ from the reference")
	}
}

func TestVectorKernelFasterThanDEVForSubmatrix(t *testing.T) {
	dt := shapes.SubMatrix(1024, 1024, 2048)
	fast := newRig(t, Options{})
	slow := newRig(t, Options{DisableVectorKernel: true, NoCacheDEV: true})
	_, _, tf := packOnGPU(t, fast, dt, 1)
	_, _, ts := packOnGPU(t, slow, dt, 1)
	if tf >= ts {
		t.Fatalf("vector kernel not faster: %v vs %v", tf, ts)
	}
}

func TestStairMatchesVectorBandwidth(t *testing.T) {
	// Fig. 6: the stair triangle recovers the vector kernel's bandwidth,
	// the ragged triangle stays well below it.
	n := 1024
	sub := shapes.SubMatrix(n, n, n)
	tri := shapes.LowerTriangular(n)
	stair := shapes.StairTriangular(n, 256)

	// Measure within a single engine run: pack twice, use the second
	// (cached) duration so conversion cost is excluded, as in the
	// paper's kernel-bandwidth figure.
	measure := func(dt *datatype.Datatype) float64 {
		r := newRig(t, Options{})
		data := r.ctx.Malloc(0, dt.Span(1))
		dst := r.ctx.Malloc(0, dt.Size())
		var dur sim.Time
		r.eng.Spawn("m", func(p *sim.Proc) {
			r.e.Pack(p, data, dt, 1, dst)
			t0 := p.Now()
			r.e.Pack(p, data, dt, 1, dst)
			dur = p.Now() - t0
		})
		r.eng.Run()
		return sim.GBps(dt.Size(), dur)
	}

	bwSub, bwTri, bwStair := measure(sub), measure(tri), measure(stair)
	if bwTri >= bwSub*0.9 {
		t.Fatalf("triangle bandwidth %.1f should be well below vector %.1f", bwTri, bwSub)
	}
	if bwStair < bwSub*0.9 {
		t.Fatalf("stair bandwidth %.1f should recover vector %.1f", bwStair, bwSub)
	}
	t.Logf("V %.1f GB/s, T %.1f GB/s, T-stair %.1f GB/s", bwSub, bwTri, bwStair)
}

func TestZeroCopyPackToHost(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.SubMatrix(256, 256, 512)
	data := r.ctx.Malloc(0, dt.Span(1))
	mem.FillPattern(data, 5)
	want := cpuPack(dt, 1, data.Bytes())
	host := r.ctx.MallocHost(dt.Size())
	var dur sim.Time
	r.eng.Spawn("zcpack", func(p *sim.Proc) {
		t0 := p.Now()
		pk := new(Packer)
		r.e.InitPacker(pk, data, dt, 1)
		_, fut := pk.PackWith(p, host, nil)
		fut.Await(p)
		dur = p.Now() - t0
	})
	r.eng.Run()
	if !bytes.Equal(host.Bytes(), want) {
		t.Fatal("zero-copy pack mismatch")
	}
	wire := sim.TimeForBytes(dt.Size(), r.ctx.Node().Params().SlotGBps)
	if dur < wire {
		t.Fatalf("zero-copy faster than PCIe: %v < %v", dur, wire)
	}
}

func TestUnitSizeValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad unit size")
		}
	}()
	newRig(t, Options{UnitSize: 300})
}

func TestContiguousPackIsSingleUnit(t *testing.T) {
	r := newRig(t, Options{})
	dt := datatype.Contiguous(1<<16, datatype.Float64)
	got, want, _ := packOnGPU(t, r, dt, 1)
	if !bytes.Equal(got, want) {
		t.Fatal("contiguous mismatch")
	}
	if r.e.ConvertedUnits() != 0 {
		t.Fatal("contiguous should ride the vector fast path")
	}
}

func TestEmptyMessage(t *testing.T) {
	r := newRig(t, Options{})
	dt := datatype.Contiguous(0, datatype.Float64)
	data := r.ctx.Malloc(0, 256)
	r.eng.Spawn("empty", func(p *sim.Proc) {
		pk := new(Packer)
		r.e.InitPacker(pk, data, dt, 1)
		if !pk.Done() || pk.Total() != 0 {
			t.Error("empty packer not done")
		}
		n, fut := pk.PackWith(p, data, nil)
		fut.Await(p)
		if n != 0 {
			t.Errorf("packed %d bytes of empty message", n)
		}
	})
	r.eng.Run()
}

// TestWholeMessageCallsBorrowTheirWorker: Pack, Unpack and UnpackPrefix
// take their Packer from the engine and hand it back, and PackBlocks and
// UnpackBlocks do the same for their one launch; the borrowed worker
// carries the kernel record that launch is made from, re-armed with its
// own descriptor array, so a steady-state call allocates nothing. (At the
// commit before, each call allocated its kernel: one record with its
// launch.) A borrowed worker starts from scratch: a prefix unpack that
// stops short leaves nothing for the next message to trip over.
func TestWholeMessageCallsBorrowTheirWorker(t *testing.T) {
	skipIfPoolDrops(t)
	r := newRig(t, Options{})
	vec, tri := shapes.SubMatrix(16, 8, 12), shapes.LowerTriangular(32)
	var allocs [4]float64
	var got, want []byte
	r.eng.Spawn("host", func(p *sim.Proc) {
		for i, dt := range []*datatype.Datatype{vec, tri} {
			data, packed := r.ctx.Malloc(0, dt.Span(1)), r.ctx.MallocHost(dt.Size())
			r.e.Pack(p, data, dt, 1, packed) // fills the DEV cache
			allocs[i] = testing.AllocsPerRun(20, func() {
				r.e.Pack(p, data, dt, 1, packed)
				r.e.Unpack(p, data, dt, 1, packed)
			}) / 2
		}
		data, packed := r.ctx.Malloc(0, tri.Span(1)), r.ctx.MallocHost(tri.Size())
		mem.FillPattern(packed, 7)
		allocs[2] = testing.AllocsPerRun(20, func() { r.e.UnpackPrefix(p, data, tri, 1, packed.Slice(0, 200)) })
		r.e.Unpack(p, data, tri, 1, packed)
		got, want = cpuPack(tri, 1, data.Bytes()), packed.Bytes()

		// Three blocks, two layouts: a vector and a run of two cached ones.
		blocks := []Block{{Dt: vec, Count: 1}, {Dt: tri, Count: 1}, {Dt: tri, Count: 1}}
		var pos int64
		for i := range blocks {
			b := &blocks[i]
			b.Data, b.Pos = r.ctx.Malloc(0, b.Dt.Span(1)), pos
			pos += b.Size()
		}
		window := r.ctx.MallocHost(pos)
		allocs[3] = testing.AllocsPerRun(20, func() {
			r.e.PackBlocks(p, blocks, window)
			r.e.UnpackBlocks(p, blocks, window)
		}) / 2
	})
	r.eng.Run()
	for i, what := range []string{"vector Pack/Unpack", "DEV Pack/Unpack", "prefix unpack", "PackBlocks/UnpackBlocks"} {
		if allocs[i] != 0 {
			t.Errorf("%s: %v allocations per call, want 0", what, allocs[i])
		}
	}
	if !bytes.Equal(got, want) {
		t.Error("a whole unpack after prefix unpacks scattered the wrong bytes")
	}
}

// CacheHits returns how many pack/unpack setups were served from the
// DEV cache.
func (e *Engine) CacheHits() int64 { return e.cacheHits }

// Remaining returns the packed bytes not yet produced/consumed.
func (pk *Packer) Remaining() int64 { return pk.conv.Remaining() }

// Done reports whether the whole message has been processed.
func (pk *Packer) Done() bool { return pk.conv.Done() }
