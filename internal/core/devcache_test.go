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

// TestDevCacheEvictionUnderBudget drives a tiny budget past capacity and
// checks LRU order, the byte bound, and reconversion after displacement.
func TestDevCacheEvictionUnderBudget(t *testing.T) {
	// Each triangular(n) layout converts to ~n units of entryDevBytes
	// (24 B). A 3000-byte budget holds two ~50-unit lists but not three.
	r := newRig(t, Options{CacheBytes: 3000})
	dts := []*datatype.Datatype{
		shapes.LowerTriangular(50),
		shapes.StairTriangular(50, 5),
		shapes.LowerTriangular(49),
	}
	var midStats DevCacheStats
	var reconvertedFirst, cachedLast bool
	r.eng.Spawn("drive", func(p *sim.Proc) {
		for _, dt := range dts {
			packNow(p, r.ctx, r.e, dt, 1)
		}
		midStats = r.e.DevCache().Stats()
		// The first layout (least recently used) must have been
		// displaced: packing it again re-converts.
		before := r.e.ConvertedUnits()
		packNow(p, r.ctx, r.e, dts[0], 1)
		reconvertedFirst = r.e.ConvertedUnits() != before
		// The most recently stored layout survives. (dts[0]'s re-store
		// just evicted LRU again, which cannot be dts[2].)
		before = r.e.ConvertedUnits()
		packNow(p, r.ctx, r.e, dts[2], 1)
		cachedLast = r.e.ConvertedUnits() == before
	})
	r.eng.Run()
	if midStats.Evictions == 0 {
		t.Fatalf("expected evictions under a 3000-byte budget, got stats %+v", midStats)
	}
	if midStats.UsedBytes > midStats.Budget {
		t.Fatalf("cache over budget: %d > %d", midStats.UsedBytes, midStats.Budget)
	}
	if midStats.Stores != int64(len(dts)) {
		t.Fatalf("stores = %d, want %d", midStats.Stores, len(dts))
	}
	if !reconvertedFirst {
		t.Fatal("evicted layout was served from cache")
	}
	if !cachedLast {
		t.Fatal("most recently used layout was evicted")
	}
	if st := r.e.DevCache().Stats(); st.UsedBytes > st.Budget {
		t.Fatalf("cache over budget after test: %+v", st)
	}
}

// TestDevCacheOversizedListNotCached checks a unit list bigger than the
// whole budget is passed through without caching or eviction storms.
func TestDevCacheOversizedListNotCached(t *testing.T) {
	r := newRig(t, Options{CacheBytes: 512})
	dt := shapes.LowerTriangular(60) // ~60 units ≈ 1440 B > 512
	var reconverted bool
	r.eng.Spawn("drive", func(p *sim.Proc) {
		packNow(p, r.ctx, r.e, dt, 1)
		before := r.e.ConvertedUnits()
		packNow(p, r.ctx, r.e, dt, 1)
		reconverted = r.e.ConvertedUnits() != before
	})
	r.eng.Run()
	st := r.e.DevCache().Stats()
	if st.Stores != 0 || st.Items != 0 || st.Evictions != 0 {
		t.Fatalf("oversized list touched the cache: %+v", st)
	}
	if !reconverted {
		t.Fatal("second pack did not reconvert")
	}
}

// TestDevCacheSharedBudgetIsolatedEntries checks the per-device cache is
// shared for budget purposes but engines never see each other's entries:
// the second engine's first pack of the same (dt, count) must miss and
// reconvert, exactly like the seed's per-engine maps.
func TestDevCacheSharedBudgetIsolatedEntries(t *testing.T) {
	se := sim.NewEngine()
	node := pcie.NewNode(se, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	ctxA, ctxB := cuda.NewCtx(node), cuda.NewCtx(node)
	eA := New(ctxA, 0, Options{})
	eB := New(ctxB, 0, Options{})
	if eA.DevCache() != eB.DevCache() {
		t.Fatal("engines on one device should share a DevCache")
	}
	dt := shapes.LowerTriangular(40)
	var unitsBBefore, unitsBAfter int64
	var gotB, wantB []byte
	se.Spawn("drive", func(p *sim.Proc) {
		packNow(p, ctxA, eA, dt, 1)
		packNow(p, ctxA, eA, dt, 1)
		unitsBBefore = eB.ConvertedUnits()
		packNow(p, ctxB, eB, dt, 1)
		unitsBAfter = eB.ConvertedUnits()
		// Packed output stays correct through the shared cache.
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
	st := eA.DevCache().Stats()
	if st.Items != 2 {
		t.Fatalf("device cache holds %d lists, want one per engine (2): %+v", st.Items, st)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("pack through shared cache produced wrong bytes")
	}
}

// TestDevCacheStatsCounters checks hit/miss accounting and the recorder
// counters surfaced when tracing is on.
func TestDevCacheStatsCounters(t *testing.T) {
	r := newRig(t, Options{})
	rec := sim.NewRecorder(r.eng)
	dt := shapes.LowerTriangular(30)
	r.eng.Spawn("drive", func(p *sim.Proc) {
		packNow(p, r.ctx, r.e, dt, 1) // miss + store
		packNow(p, r.ctx, r.e, dt, 1) // hit
		packNow(p, r.ctx, r.e, dt, 1) // hit
	})
	r.eng.Run()
	st := r.e.DevCache().Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Stores != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 1 store / 0 evictions", st)
	}
	if got := rec.Counter("core.dev.hit"); got != 2 {
		t.Fatalf("core.dev.hit = %d, want 2", got)
	}
	if got := rec.Counter("core.dev.miss"); got != 1 {
		t.Fatalf("core.dev.miss = %d, want 1", got)
	}
}

// TestDevCacheConcurrentWorlds exercises the cache and plan-compilation
// mutexes from concurrent independent worlds (what the parallel bench
// driver does); meaningful under -race. Each world owns its device, so
// the shared state is the datatype's compiled plan.
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
