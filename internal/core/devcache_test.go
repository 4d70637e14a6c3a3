package core

import (
	"bytes"
	"fmt"
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

// packNow runs one synchronous whole-message pack on the calling process.
func packNow(p *sim.Proc, ctx *cuda.Ctx, e *Engine, dt *datatype.Datatype, count int) {
	data := ctx.Malloc(e.Device().ID(), dt.Span(count))
	mem.FillPattern(data, 7)
	dst := ctx.Malloc(e.Device().ID(), int64(count)*dt.Size())
	e.Pack(p, data, dt, count, dst)
}

// TestDevCacheIsolatedPerEngine checks engines never see each other's
// lists, even on one device: the second engine's first pack of the same
// (dt, count) must miss, reconvert and pack the right bytes.
func TestDevCacheIsolatedPerEngine(t *testing.T) {
	se := sim.NewEngine()
	node := pcie.NewNode(se, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	ctxA, ctxB := cuda.NewCtx(node), cuda.NewCtx(node)
	eA := New(ctxA, 0, Options{})
	eB := New(ctxB, 0, Options{})
	dt := shapes.LowerTriangular(40)
	var unitsBBefore, unitsBAfter int64
	var gotB, wantB []byte
	se.Spawn("drive", func(p *sim.Proc) {
		packNow(p, ctxA, eA, dt, 1)
		packNow(p, ctxA, eA, dt, 1)
		unitsBBefore = eB.ConvertedUnits()
		packNow(p, ctxB, eB, dt, 1)
		unitsBAfter = eB.ConvertedUnits()
		data := ctxB.Malloc(0, dt.Span(1))
		mem.FillPattern(data, 3)
		wantB = cpuPack(dt, 1, data.Bytes())
		dst := ctxB.Malloc(0, int64(len(wantB)))
		eB.Pack(p, data, dt, 1, dst)
		gotB = dst.Bytes()
	})
	se.Run()
	if eA.CacheHits() != 1 {
		t.Fatalf("engine A: %d cache hits, want 1", eA.CacheHits())
	}
	if eB.CacheHits() != 1 { // second B pack hits B's own entry
		t.Fatalf("engine B: %d cache hits, want 1", eB.CacheHits())
	}
	if unitsBAfter == unitsBBefore {
		t.Fatal("engine B's first pack was served from engine A's entries")
	}
	if len(eA.cache) != 1 || len(eB.cache) != 1 {
		t.Fatalf("engines hold %d and %d lists, want one each", len(eA.cache), len(eB.cache))
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("pack from engine B's own list produced wrong bytes")
	}
}

// TestDevCacheStatsCounters checks hit/miss accounting and the recorder
// counters surfaced when tracing is on.
func TestDevCacheStatsCounters(t *testing.T) {
	r := newRig(t, Options{})
	rec := sim.NewRecorder(r.eng)
	dt := shapes.LowerTriangular(30)
	var units int64
	r.eng.Spawn("drive", func(p *sim.Proc) {
		packNow(p, r.ctx, r.e, dt, 1) // miss + store
		units = r.e.ConvertedUnits()
		packNow(p, r.ctx, r.e, dt, 1) // hit
		packNow(p, r.ctx, r.e, dt, 1) // hit
	})
	r.eng.Run()
	if r.e.CacheHits() != 2 || len(r.e.cache) != 1 {
		t.Fatalf("%d hits, %d lists cached; want 2 hits, 1 list", r.e.CacheHits(), len(r.e.cache))
	}
	if units == 0 || r.e.ConvertedUnits() != units {
		t.Fatalf("converted %d units, then %d: want only the miss to convert", units, r.e.ConvertedUnits())
	}
	if got := rec.Counter("core.dev.hit"); got != 2 {
		t.Fatalf("core.dev.hit = %d, want 2", got)
	}
	if got := rec.Counter("core.dev.miss"); got != 1 {
		t.Fatalf("core.dev.miss = %d, want 1", got)
	}
}

// TestFirstPackAllocatesItsListOnly pins the heap bytes of a cache
// miss: the list a converting packer keeps is sized exactly (see
// Packer.countRuns), so the first pack of a 32-block triangle on a fresh
// engine allocates its list of a few dozen runs, the cache's map and the
// worker it borrows. (At the commit before, every conversion took a
// list of at least 1 024 entries, 24 KiB: 27 408 B here.)
func TestFirstPackAllocatesItsListOnly(t *testing.T) {
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(32)
	data, packed := r.ctx.Malloc(0, dt.Span(1)), r.ctx.Malloc(0, dt.Size())
	var bytes uint64
	r.eng.Spawn("drive", func(p *sim.Proc) {
		p.Sleep(1) // grows the event queue
		bytes = allocBytes(func() { r.e.Pack(p, data, dt, 1, packed) })
	})
	r.eng.Run()
	if r.e.ConvertedUnits() == 0 || len(r.e.cache) != 1 {
		t.Fatalf("the first pack converted %d units and cached %d lists, want a miss that fills the cache", r.e.ConvertedUnits(), len(r.e.cache))
	}
	if bytes > 8<<10 {
		t.Errorf("the first pack allocated %d B, want at most 8 KiB", bytes)
	}
}

// TestDevCacheConcurrentWorlds packs one datatype from concurrent
// independent worlds (what the parallel bench driver does); meaningful
// under -race. Each world builds its own devices and engines, so worlds
// share the datatype, immutable once built, and never a cache.
func TestDevCacheConcurrentWorlds(t *testing.T) {
	dt := shapes.LowerTriangular(32)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := sim.NewEngine()
			node := pcie.NewNode(se, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
			ctx := cuda.NewCtx(node)
			e := New(ctx, 0, Options{})
			se.Spawn("drive", func(p *sim.Proc) {
				for j := 0; j < 3; j++ {
					packNow(p, ctx, e, dt, 1)
				}
			})
			se.Run()
			if e.CacheHits() != 2 {
				t.Errorf("world: %d hits, want 2", e.CacheHits())
			}
		}()
	}
	wg.Wait()
}

// BenchmarkDEVCacheHit measures the host cost of a whole cached pack:
// cache lookup, window slicing of the resident unit list, kernel unit
// construction and execution.
func BenchmarkDEVCacheHit(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("triangular%d", n), func(b *testing.B) {
			se := sim.NewEngine()
			node := pcie.NewNode(se, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
			ctx := cuda.NewCtx(node)
			e := New(ctx, 0, Options{})
			dt := shapes.LowerTriangular(n)
			data := ctx.Malloc(0, dt.Span(1))
			dst := ctx.Malloc(0, dt.Size())
			se.Spawn("drive", func(p *sim.Proc) {
				e.Pack(p, data, dt, 1, dst) // warm the cache
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Pack(p, data, dt, 1, dst)
				}
				b.StopTimer()
			})
			se.Run()
			if e.CacheHits() != int64(b.N) {
				b.Fatalf("expected every iteration to hit, got %d/%d", e.CacheHits(), b.N)
			}
		})
	}
}

// TestTransposeListIsRuns pins the list the transpose stress shape
// (§5.2.3) converts into: Transpose(512) is 262 144 eight-byte units, one
// per matrix element, and its list holds them as at most 512 runs. Its
// first pack on a fresh engine allocates at most 64 KiB (the list of
// single units was 6.34 MB), and a cached pack plus unpack allocates
// nothing. A throw-away world converts first and is released, as an
// earlier world is, so the descriptor shelf and the list and slab pools
// are warm.
func TestTransposeListIsRuns(t *testing.T) {
	dt := shapes.Transpose(512)
	warm := newRig(t, Options{})
	warm.eng.Spawn("warm", func(p *sim.Proc) { packNow(p, warm.ctx, warm.e, dt, 1) })
	warm.eng.Run()
	warm.e.Release()
	warm.ctx.Node().Release()

	r := newRig(t, Options{})
	data, packed := r.ctx.Malloc(0, dt.Span(1)), r.ctx.Malloc(0, dt.Size())
	var first, cached uint64
	r.eng.Spawn("drive", func(p *sim.Proc) {
		p.Sleep(1) // grows the event queue
		first = allocBytes(func() { r.e.Pack(p, data, dt, 1, packed) })
		r.e.Unpack(p, data, dt, 1, packed)
		cached = allocBytes(func() {
			r.e.Pack(p, data, dt, 1, packed)
			r.e.Unpack(p, data, dt, 1, packed)
		})
	})
	r.eng.Run()
	val := r.e.cache[cacheKey{dt, 1}]
	if val == nil || r.e.ConvertedUnits() != 512*512 {
		t.Fatalf("the first pack converted %d units, want 262144 cached", r.e.ConvertedUnits())
	}
	if n := len(val.entries); n > 512 {
		t.Errorf("the list holds %d runs, want at most 512", n)
	}
	if first > 64<<10 {
		t.Errorf("the first pack allocated %d B, want at most 64 KiB", first)
	}
	if cached != 0 {
		t.Errorf("a cached pack and unpack allocated %d B, want none", cached)
	}
}
