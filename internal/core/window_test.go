package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// refWindows is the descriptor plumbing the packer had before its paths
// wrote kernel units directly: a window's entries are copied into a
// scratch slice (viewEntries / cachedEntries, unedited but for the
// vector's field names), then converted to direction-bound units (the
// loop that stood in launch). It is the reference of
// TestWindowUnitsMatchReference.
type refWindows struct {
	view    *datatype.CanonVec
	entries []Entry // the cached list
	ci      int
	scratch []Entry
}

func (pk *refWindows) viewEntries(start, n int64) []Entry {
	v := pk.view
	out := pk.scratch[:0]
	end := start + n
	for i := start / v.BlockLen; i < v.Inner; i++ {
		bStart := i * v.BlockLen // packed offset of block i
		if bStart >= end {
			break
		}
		lo, hi := bStart, bStart+v.BlockLen
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		memOff := v.Off + i*v.InnerStride + (lo - bStart)
		for l := lo; l < hi; {
			take := hi - l
			if take > maxUnitLen {
				take = maxUnitLen
			}
			out = append(out, Entry{MemOff: memOff + (l - lo), PackOff: l, Len: int32(take)})
			l += take
		}
	}
	pk.scratch = out
	return out
}

func (pk *refWindows) cachedEntries(start, n int64) []Entry {
	entries := pk.entries
	end := start + n
	if pk.ci > 0 && entries[pk.ci-1].PackOff+int64(entries[pk.ci-1].Len) > start {
		pk.ci = sort.Search(len(entries), func(i int) bool {
			return entries[i].PackOff+int64(entries[i].Len) > start
		})
	}
	out := pk.scratch[:0]
	for i := pk.ci; i < len(entries); i++ {
		u := entries[i]
		uStart, uEnd := u.PackOff, u.PackOff+int64(u.Len)
		if uEnd <= start {
			pk.ci = i + 1
			continue
		}
		if uStart >= end {
			break
		}
		lo, hi := uStart, uEnd
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		out = append(out, Entry{
			MemOff:  u.MemOff + (lo - uStart),
			PackOff: lo,
			Len:     int32(hi - lo),
			Partial: u.Partial || hi-lo < int64(u.Len),
		})
	}
	pk.scratch = out
	return out
}

func bindRef(dir direction, entries []Entry, fragStart int64) []gpu.Unit {
	units := make([]gpu.Unit, len(entries))
	if dir == dirPack {
		for i, u := range entries {
			units[i] = gpu.Unit{SrcOff: u.MemOff, DstOff: u.PackOff - fragStart, Len: u.Len, Partial: u.Partial}
		}
	} else {
		for i, u := range entries {
			units[i] = gpu.Unit{SrcOff: u.PackOff - fragStart, DstOff: u.MemOff, Len: u.Len, Partial: u.Partial}
		}
	}
	return units
}

// convertRef is the conversion of a whole message taken in one window:
// per chunk, split into a scratch slice, then append to the list.
func convertRef(dt *datatype.Datatype, count int, opts Options) []Entry {
	conv := datatype.NewConverter(dt, count)
	var list, scratch []Entry
	for !conv.Done() {
		scratch = scratch[:0]
		conv.Advance(opts.ChunkBytes, func(memOff, packOff, l int64) {
			scratch = splitEntries(scratch, opts.UnitSize, memOff, packOff, l)
		})
		list = append(list, scratch...)
	}
	return list
}

func equalUnits(a, b []gpu.Unit) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d units, reference has %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("unit %d = %+v, reference %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestWindowUnitsMatchReference walks random window sequences — sizes
// that split units, with rewinds and forward seeks — over the cached and
// the vector path, packing and unpacking, and requires the kernel unit
// list of every window to equal the reference's element for element. It
// also requires the list a cold whole-message pack caches to equal the
// reference conversion.
func TestWindowUnitsMatchReference(t *testing.T) {
	indexed := func() *datatype.Datatype {
		rng := rand.New(rand.NewSource(7))
		idx := rng.Perm(4096)[:1500]
		sort.Ints(idx)
		return shapes.ParticleIndices(idx, 37) // 296-byte records, merged where adjacent
	}
	for _, tc := range []struct {
		dt    *datatype.Datatype
		count int
	}{
		{shapes.LowerTriangular(1024), 1},
		{shapes.Transpose(64), 1},
		{indexed(), 2},
		{shapes.SubMatrix(300, 200, 512), 1}, // vector path
	} {
		for _, dir := range []direction{dirPack, dirUnpack} {
			r := newRig(t, Options{})
			dt, count := tc.dt, tc.count
			data := r.ctx.Malloc(0, dt.Span(count))
			packed := r.ctx.Malloc(0, int64(count)*dt.Size())
			r.eng.Spawn("cold", func(p *sim.Proc) { r.e.Pack(p, data, dt, count, packed) })
			r.eng.Run()

			pk := new(Packer)
			pk.init(r.e, data, dt, count, dir)
			ref := &refWindows{view: pk.view}
			what := fmt.Sprintf("%s x%d dir %d", dt.Name(), count, dir)
			if pk.view == nil {
				if pk.cached == nil {
					t.Fatalf("%s: the cold pack cached nothing", what)
				}
				ref.entries = pk.cached.entries
				want := convertRef(dt, count, r.e.opts)
				if len(ref.entries) != len(want) {
					t.Fatalf("%s: cached list has %d entries, reference conversion %d", what, len(ref.entries), len(want))
				}
				for i := range want {
					if ref.entries[i] != want[i] {
						t.Fatalf("%s: cached entry %d = %+v, reference %+v", what, i, ref.entries[i], want[i])
					}
				}
			}

			rng := rand.New(rand.NewSource(18))
			total := pk.Total()
			sizes := []int64{1, 7, 8, 100, 1000, 1024, 4096, 65536, 1 << 20}
			pos := int64(0)
			for step := 0; step < 600; step++ {
				switch rng.Intn(8) {
				case 0: // a rewind, as fault recovery does
					pos = rng.Int63n(pos + 1)
					pk.SeekTo(pos)
				case 1: // a seek anywhere
					pos = rng.Int63n(total)
					pk.SeekTo(pos)
				}
				if pos == total {
					pos = 0
					pk.SeekTo(0)
				}
				n := 1 + rng.Int63n(sizes[rng.Intn(len(sizes))])
				if n > total-pos {
					n = total - pos
				}
				var got []gpu.Unit
				var want []Entry
				if pk.view != nil {
					got, want = pk.viewUnits(pos, n, nil), ref.viewEntries(pos, n)
				} else {
					got, want = pk.cachedUnits(pos, n, nil), ref.cachedEntries(pos, n)
				}
				if err := equalUnits(got, bindRef(dir, want, pos)); err != nil {
					t.Fatalf("%s: step %d, window [%d,+%d): %v", what, step, pos, n, err)
				}
				pos += n
			}
		}
	}
}

// TestCachedWindowAllocsBounded: a cached pack allocates a constant
// number of objects (the kernel, its stream operation, futures), however
// many units the window has — descriptors go from the resident list
// into a pooled array and nowhere else.
func TestCachedWindowAllocsBounded(t *testing.T) {
	allocs := func(n int) float64 {
		r := newRig(t, Options{})
		dt := shapes.Transpose(n)
		data := r.ctx.Malloc(0, dt.Span(1))
		dst := r.ctx.Malloc(0, dt.Size())
		var got float64
		r.eng.Spawn("pack", func(p *sim.Proc) {
			r.e.Pack(p, data, dt, 1, dst) // converts and caches
			r.e.Pack(p, data, dt, 1, dst) // sizes the pooled unit array
			got = testing.AllocsPerRun(20, func() { r.e.Pack(p, data, dt, 1, dst) })
		})
		r.eng.Run()
		return got
	}
	small, large := allocs(16), allocs(128) // 256 and 16 384 units
	if small != large || large > 16 {
		t.Fatalf("cached pack allocates %v objects for 256 units, %v for 16384; want equal and at most 16", small, large)
	}
}

// BenchmarkPackCachedTranspose measures the host cost of a cached pack
// of the transpose stress shape: one 8-byte unit per element, so the
// time is descriptor handling, not bytes.
func BenchmarkPackCachedTranspose(b *testing.B) {
	const n = 256
	r := newRig(b, Options{})
	dt := shapes.Transpose(n)
	data := r.ctx.Malloc(0, dt.Span(1))
	dst := r.ctx.Malloc(0, dt.Size())
	b.SetBytes(dt.Size())
	r.eng.Spawn("drive", func(p *sim.Proc) {
		r.e.Pack(p, data, dt, 1, dst) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.e.Pack(p, data, dt, 1, dst)
		}
		b.StopTimer()
	})
	r.eng.Run()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n), "ns/unit")
}
