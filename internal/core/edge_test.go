package core

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// TestCachedEntriesSplitAtOddFragmentBoundaries packs with the DEV cache
// warm using fragment sizes that are not multiples of the unit size S,
// so cached units must be split mid-unit at both window edges.
func TestCachedEntriesSplitAtOddFragmentBoundaries(t *testing.T) {
	dt := shapes.LowerTriangular(96)
	for _, frag := range []int64{1, 7, 333, 1000, 1025, 4097} {
		t.Run(fmt.Sprintf("frag%d", frag), func(t *testing.T) {
			r := newRig(t, Options{})
			data := r.ctx.Malloc(0, dt.Span(1))
			mem.FillPattern(data, 11)
			want := cpuPack(dt, 1, data.Bytes())
			out := r.ctx.Malloc(0, dt.Size())
			r.eng.Spawn("warm+frag", func(p *sim.Proc) {
				// Warm the cache with a whole-message pack.
				tmp := r.ctx.Malloc(0, dt.Size())
				r.e.Pack(p, data, dt, 1, tmp)
				if r.e.CacheHits() != 0 {
					t.Errorf("unexpected early cache hit")
				}
				// Fragmented pack must hit the cache and stay correct.
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
			if r.e.CacheHits() != 1 {
				t.Fatalf("cache hits = %d, want 1", r.e.CacheHits())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatal("fragmented cached pack mismatch")
			}
		})
	}
}

// TestVectorFragmentBoundaries does the same for the vector fast path,
// whose list is the one run of the vector's blocks.
func TestVectorFragmentBoundaries(t *testing.T) {
	dt := shapes.SubMatrix(33, 17, 50) // odd-sized strided blocks
	for _, frag := range []int64{1, 13, 100, 264, 1000} {
		r := newRig(t, Options{})
		data := r.ctx.Malloc(0, dt.Span(1))
		mem.FillPattern(data, 4)
		want := cpuPack(dt, 1, data.Bytes())
		out := r.ctx.Malloc(0, dt.Size())
		r.eng.Spawn("vecfrag", func(p *sim.Proc) {
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
			t.Fatalf("frag %d: vector fragmented pack mismatch", frag)
		}
	}
}

// TestUnpackerFragmentedCachedRoundTrip unpacks in odd fragments with a
// warm cache and verifies the scattered result.
func TestUnpackerFragmentedCachedRoundTrip(t *testing.T) {
	dt := shapes.LowerTriangular(80)
	r := newRig(t, Options{})
	src := r.ctx.Malloc(0, dt.Span(1))
	dst := r.ctx.Malloc(0, dt.Span(1))
	mem.FillPattern(src, 9)
	packed := r.ctx.Malloc(0, dt.Size())
	r.eng.Spawn("roundtrip", func(p *sim.Proc) {
		r.e.Pack(p, src, dt, 1, packed)   // warms pack-direction cache
		r.e.Unpack(p, dst, dt, 1, packed) // warms unpack-direction cache
		clear(dst.Bytes())
		uk := new(Packer)
		r.e.InitUnpacker(uk, dst, dt, 1)
		var off int64
		for !uk.Done() {
			n := int64(777)
			if rem := uk.Remaining(); n > rem {
				n = rem
			}
			_, fut := uk.UnpackWith(p, packed.Slice(off, n), nil)
			fut.Await(p)
			off += n
		}
	})
	r.eng.Run()
	if !bytes.Equal(cpuPack(dt, 1, dst.Bytes()), cpuPack(dt, 1, src.Bytes())) {
		t.Fatal("fragmented cached unpack mismatch")
	}
}

// TestTwoEnginesShareNothing verifies per-process isolation: caches and
// streams are per-engine even on the same device.
func TestTwoEnginesShareNothing(t *testing.T) {
	r := newRig(t, Options{})
	e2 := New(r.ctx, 0, Options{})
	dt := shapes.LowerTriangular(64)
	data := r.ctx.Malloc(0, dt.Span(1))
	out := r.ctx.Malloc(0, dt.Size())
	r.eng.Spawn("iso", func(p *sim.Proc) {
		r.e.Pack(p, data, dt, 1, out)
		e2.Pack(p, data, dt, 1, out)
	})
	r.eng.Run()
	if r.e.CacheHits() != 0 || e2.CacheHits() != 0 {
		t.Fatal("engines shared a DEV cache")
	}
	if r.e.ConvertedUnits() == 0 || e2.ConvertedUnits() == 0 {
		t.Fatal("each engine should have converted independently")
	}
}
