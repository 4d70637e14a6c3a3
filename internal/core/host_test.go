package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// TestHostDataMovesOnCPU: the engine moves host-resident data on the
// CPU, on every entry point — Pack, UnpackPrefix, PackBlocks and
// UnpackBlocks, and a fragment-at-a-time Packer replayed from SeekTo(0).
// Each call takes exactly the host bus's charge for a read and a write
// of the bytes it moves (one charge for a fused set), the bytes equal
// the reference packing, no kernel runs, and the DEV cache is never
// looked at.
func TestHostDataMovesOnCPU(t *testing.T) {
	for _, dt := range []*datatype.Datatype{shapes.SubMatrix(40, 30, 64), shapes.LowerTriangular(48)} {
		r := newRig(t, Options{})
		bus := r.ctx.Node().HostBus()
		charge := func(n int64) sim.Time { return bus.OccupancyFor(2*n) + bus.Latency() }
		total := dt.Size()
		data := r.ctx.MallocHost(dt.Span(1))
		mem.FillPattern(data, 5)
		want := datatype.PackImage(dt, 1, data.Bytes())
		rec := sim.NewRecorder(r.eng)

		// timed runs step and checks it took exactly the bus charge for n
		// bytes.
		timed := func(p *sim.Proc, what string, n int64, step func()) {
			t0 := p.Now()
			step()
			if got := p.Now() - t0; got != charge(n) {
				t.Errorf("%s %s: took %v, want the host bus's charge for %d bytes, %v", dt.Name(), what, got, 2*n, charge(n))
			}
		}
		check := func(what string, got []byte) {
			if !bytes.Equal(got, want[:len(got)]) {
				t.Errorf("%s %s: bytes differ from the reference packing", dt.Name(), what)
			}
		}
		r.eng.Spawn("host", func(p *sim.Proc) {
			packed := r.ctx.MallocHost(total)
			timed(p, "Pack", total, func() { r.e.Pack(p, data, dt, 1, packed) })
			check("Pack", packed.Bytes())

			// A partial receive scatters only the prefix it got.
			layout := r.ctx.MallocHost(dt.Span(1))
			timed(p, "UnpackPrefix", 100, func() { r.e.UnpackPrefix(p, layout, dt, 1, packed.Slice(0, 100)) })
			check("UnpackPrefix", datatype.PackImage(dt, 1, layout.Bytes())[:100])

			// Two blocks of one host buffer, packed behind a 16-byte gap.
			blocks := []Block{
				{Data: data, Dt: dt, Count: 1, Pos: 16},
				{Data: data, Dt: dt, Count: 1, Pos: 16 + total},
			}
			window := r.ctx.MallocHost(16 + 2*total)
			timed(p, "PackBlocks", 2*total, func() { r.e.PackBlocks(p, blocks, window) })
			check("PackBlocks", window.Bytes()[16:16+total])
			check("PackBlocks", window.Bytes()[16+total:])
			into := r.ctx.MallocHost(dt.Span(1))
			blocks = blocks[:1]
			blocks[0].Data = into
			timed(p, "UnpackBlocks", total, func() { r.e.UnpackBlocks(p, blocks, window) })
			check("UnpackBlocks", datatype.PackImage(dt, 1, into.Bytes()))

			// Fragment at a time, abandoned after two fragments and
			// replayed from the start.
			const frag = 100
			out := r.ctx.MallocHost(total)
			pk := new(Packer)
			r.e.InitPacker(pk, data, dt, 1)
			for attempt := 0; attempt < 2; attempt++ {
				pk.SeekTo(0)
				for i := 0; !pk.Done() && (attempt == 1 || i < 2); i++ {
					off := total - pk.Remaining()
					n := min(frag, pk.Remaining())
					timed(p, "PackWith", n, func() {
						if _, fut := pk.PackWith(p, out.Slice(off, n), nil); !fut.Done() {
							t.Errorf("%s PackWith: future not complete on return", dt.Name())
						}
					})
				}
			}
			check("PackWith", out.Bytes())
			layout = r.ctx.MallocHost(dt.Span(1))
			uk := new(Packer)
			r.e.InitUnpacker(uk, layout, dt, 1)
			for !uk.Done() {
				off := total - uk.Remaining()
				n := min(frag, uk.Remaining())
				timed(p, "UnpackWith", n, func() { uk.UnpackWith(p, out.Slice(off, n), nil) })
			}
			check("UnpackWith", datatype.PackImage(dt, 1, layout.Bytes()))
		})
		r.eng.Run()
		if k := r.e.Device().KernelsRun(); k != 0 {
			t.Errorf("%s: %d kernels ran for host data", dt.Name(), k)
		}
		if hit, miss := rec.Counter("core.dev.hit"), rec.Counter("core.dev.miss"); hit != 0 || miss != 0 || len(r.e.cache) != 0 {
			t.Errorf("%s: host data touched the DEV cache: %d hits, %d misses, %d lists", dt.Name(), hit, miss, len(r.e.cache))
		}
	}
}

// TestHostCallsAllocateNothing pins the CPU path at 0 heap objects,
// from the first call on a fresh engine: a whole message and a fused set
// move through a converter on the stack, not a borrowed worker, and a
// Packer's fragment returns the one future every engine shares. It
// counts, from the memory profile, only what the engine's methods
// allocate (mallocs): the runtime's own allocations while the calls run
// are not theirs.
func TestHostCallsAllocateNothing(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	r := newRig(t, Options{})
	dt := shapes.LowerTriangular(32)
	data, packed := r.ctx.MallocHost(dt.Span(1)), r.ctx.MallocHost(dt.Size())
	blocks := []Block{{Data: data, Dt: dt, Count: 1}}
	var pk Packer
	var allocs [3]int64
	r.eng.Spawn("host", func(p *sim.Proc) {
		p.Sleep(1) // grows the event queue
		allocs[0] = mallocs(func() {
			r.e.Pack(p, data, dt, 1, packed)
			r.e.UnpackPrefix(p, data, dt, 1, packed.Slice(0, 100))
		})
		allocs[1] = mallocs(func() {
			r.e.PackBlocks(p, blocks, packed)
			r.e.UnpackBlocks(p, blocks, packed)
		})
		allocs[2] = mallocs(func() {
			r.e.InitPacker(&pk, data, dt, 1)
			for !pk.Done() {
				_, fut := pk.PackWith(p, packed.Slice(dt.Size()-pk.Remaining(), min(256, pk.Remaining())), nil)
				fut.Await(p)
			}
		})
	})
	r.eng.Run()
	for i, what := range []string{"Pack/UnpackPrefix", "PackBlocks/UnpackBlocks", "Packer message"} {
		if allocs[i] != 0 {
			t.Errorf("host %s: %d allocations on a fresh engine, want 0", what, allocs[i])
		}
	}
}

// mallocs returns the heap objects f allocates below the engine's
// methods — every allocation whose stack passes through a method of
// Engine or Packer — as the memory profile has them: an allocation the
// runtime makes for itself meanwhile (a timer's, a collector's) is not
// f's. The caller sets runtime.MemProfileRate to 1, so the profile
// samples every allocation.
func mallocs(f func()) int64 {
	before := coreAllocs()
	f()
	return coreAllocs() - before
}

// coreAllocs returns the heap objects allocated so far below a method
// of Engine or Packer, as the memory profile has them.
func coreAllocs() int64 {
	for range 3 { // the profile publishes a cycle's allocations two collections late
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "gpuddt/internal/core.(*Engine).") ||
				strings.HasPrefix(f.Function, "gpuddt/internal/core.(*Packer).") {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	f()
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - before
}
