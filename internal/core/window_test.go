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
// scratch slice (viewEntries / cachedEntries), then converted to
// direction-bound units (the loop that stood in launch). Its entries
// are single units: the cached list is the packer's, expanded; a
// vector's are its blocks, one entry each, a block the window cuts
// partial as a cut cached unit is. It is the reference of
// TestWindowUnitsMatchReference.
type refWindows struct {
	view    *datatype.CanonVec
	entries []Entry // the cached list, one unit an entry
	ci      int
	scratch []Entry
}

// splitEntries is the split the conversion made before it built runs:
// one entry per CUDA-DEV unit of a converter emission.
func splitEntries(dst []Entry, unitSize, memOff, packOff, n int64) []Entry {
	for n > 0 {
		take := unitSize
		if n < take {
			take = n
		}
		dst = append(dst, Entry{
			MemOff:  memOff,
			PackOff: packOff,
			Len:     int32(take),
			Partial: take < unitSize,
		})
		memOff += take
		packOff += take
		n -= take
	}
	return dst
}

// expandEntries is the unit list a list of runs stands for, one entry
// per unit.
func expandEntries(list []Entry) []Entry {
	var out []Entry
	for _, e := range list {
		for j := int64(0); j <= int64(e.More); j++ {
			out = append(out, Entry{MemOff: e.MemOff + j*int64(e.Stride), PackOff: e.PackOff + j*int64(e.Len), Len: e.Len, Partial: e.Partial})
		}
	}
	return out
}

// expandUnits is the copy list kernel units of direction dir stand for,
// one unit per copy.
func expandUnits(units []gpu.Unit, dir direction) []gpu.Unit {
	var out []gpu.Unit
	for _, u := range units {
		ss, ds := int64(u.Stride), int64(u.Len)
		if dir == dirUnpack {
			ss, ds = ds, ss
		}
		for j := int64(0); j <= int64(u.More); j++ {
			out = append(out, gpu.Unit{SrcOff: u.SrcOff + j*ss, DstOff: u.DstOff + j*ds, Len: u.Len, Partial: u.Partial})
		}
	}
	return out
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
		out = append(out, Entry{
			MemOff:  v.Off + i*v.InnerStride + (lo - bStart),
			PackOff: lo,
			Len:     int32(hi - lo),
			Partial: hi-lo < v.BlockLen,
		})
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

// convertRef is the conversion of a whole message taken in windows of
// the given sizes (the last repeated), each cut into chunks: per chunk,
// split into a scratch slice, then append to the list.
func convertRef(dt *datatype.Datatype, count int, opts Options, windows ...int64) []Entry {
	conv := datatype.NewConverter(dt, count)
	var list, scratch []Entry
	for w := 0; !conv.Done(); w = min(w+1, len(windows)-1) {
		for left := windows[w]; left > 0 && !conv.Done(); {
			scratch = scratch[:0]
			left -= conv.Advance(min(opts.ChunkBytes, left), func(memOff, packOff, l int64) {
				scratch = splitEntries(scratch, opts.UnitSize, memOff, packOff, l)
			})
			list = append(list, scratch...)
		}
	}
	return list
}

// equalEntries compares a list of runs, expanded, with a reference list
// of single units.
func equalEntries(runs, want []Entry) error {
	got := expandEntries(runs)
	if len(got) != len(want) {
		return fmt.Errorf("%d units in %d runs, reference has %d", len(got), len(runs), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("unit %d = %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
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
// the vector path, packing and unpacking, and requires the kernel units
// of every window, expanded, to equal the reference's element for
// element; windows that cut a run mid-run and mid-unit must both occur.
// It also requires the list a cold whole-message pack caches, and one a
// pipelined first pass caches, to expand to the reference conversion
// taken in the same windows, in an array of exactly its length.
func TestWindowUnitsMatchReference(t *testing.T) {
	indexed := func() *datatype.Datatype {
		rng := rand.New(rand.NewSource(7))
		idx := rng.Perm(4096)[:1500]
		sort.Ints(idx)
		return shapes.ParticleIndices(idx, 37) // 296-byte records, merged where adjacent
	}
	var midRun, midUnit int // windows starting inside a run
	for _, tc := range []struct {
		dt    *datatype.Datatype
		count int
	}{
		{shapes.LowerTriangular(1024), 1},
		{shapes.Transpose(64), 1},
		{indexed(), 2},
		{shapes.SubMatrix(300, 200, 512), 1}, // vector path
		{shapes.FullMatrix(512), 1},          // one dense block, cut at both ends
		{shapes.StairTriangular(96, 8), 1},   // blocks longer than S
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
			ref := &refWindows{}
			what := fmt.Sprintf("%s x%d dir %d", dt.Name(), count, dir)
			var want []Entry
			if pk.kind == gpu.VectorKernel {
				v, _ := dt.Vector(count)
				ref.view = &v
				want = ref.viewEntries(0, pk.Total())
			} else {
				want = convertRef(dt, count, r.e.opts, dt.Size()*int64(count))
				ref.entries = want
			}
			if pk.list == nil {
				t.Fatalf("%s: no list: the cold pack cached nothing", what)
			}
			if err := equalEntries(pk.list, want); err != nil {
				t.Fatalf("%s: list: %v", what, err)
			}
			if l := pk.list; cap(l) != len(l) {
				t.Fatalf("%s: list of %d runs has capacity %d", what, len(l), cap(l))
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
				got := pk.listUnits(pos, n, nil)
				if ref.view != nil {
					want = ref.viewEntries(pos, n)
				} else {
					want = ref.cachedEntries(pos, n)
				}
				list := pk.list
				e := &list[sort.Search(len(list), func(i int) bool { return list[i].end() > pos })]
				switch {
				case (pos-e.PackOff)%int64(e.Len) != 0:
					midUnit++
				case pos > e.PackOff:
					midRun++
				}
				if err := equalUnits(expandUnits(got, dir), bindRef(dir, want, pos)); err != nil {
					t.Fatalf("%s: step %d, window [%d,+%d): %v", what, step, pos, n, err)
				}
				pos += n
			}
			if pk.kind == gpu.VectorKernel {
				continue
			}

			// A first pass in windows that cut runs and units: the list
			// it caches joins what the windows split.
			r = newRig(t, Options{})
			data = r.ctx.Malloc(0, dt.Span(count))
			frag := r.ctx.Malloc(0, 1000)
			r.eng.Spawn("windows", func(p *sim.Proc) {
				pk := new(Packer)
				r.e.InitPacker(pk, data, dt, count)
				var out []byte
				packFrags(p, pk, frag, &out)
			})
			r.eng.Run()
			l := r.e.lookupCache(dt, count).entries
			if err := equalEntries(l, convertRef(dt, count, r.e.opts, 1000)); err != nil {
				t.Fatalf("%s: list cached by 1000-byte windows: %v", what, err)
			}
			if cap(l) != len(l) {
				t.Fatalf("%s: list cached by 1000-byte windows: %d runs, capacity %d", what, len(l), cap(l))
			}
		}
	}
	if midRun == 0 || midUnit == 0 {
		t.Fatalf("%d windows started mid-run and %d mid-unit, want both", midRun, midUnit)
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
