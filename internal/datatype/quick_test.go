package datatype

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randType builds a random non-overlapping datatype tree of bounded depth
// using the given source of randomness.
func randType(r *rand.Rand, depth int) *Datatype {
	prims := []*Datatype{Byte, Char, Int32, Int64, Float32, Float64}
	if depth <= 0 || r.Intn(4) == 0 {
		return prims[r.Intn(len(prims))]
	}
	base := randType(r, depth-1)
	switch r.Intn(5) {
	case 0:
		return Contiguous(r.Intn(5), base)
	case 1:
		count := r.Intn(4) + 1
		bl := r.Intn(3) + 1
		stride := bl + r.Intn(4) // >= blocklen: no overlap
		return Vector(count, bl, stride, base)
	case 2:
		n := r.Intn(4) + 1
		bls := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			pos += r.Intn(3)
			displs[i] = pos
			bls[i] = r.Intn(3) + 1
			pos += bls[i]
		}
		return Indexed(bls, displs, base)
	case 3:
		n := r.Intn(3) + 1
		bls := make([]int, n)
		displs := make([]int64, n)
		types := make([]*Datatype, n)
		var pos int64
		for i := 0; i < n; i++ {
			types[i] = randType(r, depth-1)
			pos += int64(r.Intn(16))
			// Align displacement to the member origin; keep members
			// disjoint by advancing past the span.
			displs[i] = pos - types[i].TrueLB()
			bls[i] = r.Intn(2) + 1
			pos = displs[i] + types[i].Span(bls[i])
			if pos < displs[i] {
				pos = displs[i]
			}
		}
		return Struct(bls, displs, types)
	default:
		size := r.Intn(5) + 2
		sub := r.Intn(size) + 1
		start := r.Intn(size - sub + 1)
		order := OrderC
		if r.Intn(2) == 0 {
			order = OrderFortran
		}
		return Subarray([]int{size, size}, []int{sub, sub}, []int{start, start}, order, base)
	}
}

func TestQuickFlatSizeConsistency(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 3)
		var sum int64
		for _, b := range dt.Flat() {
			if b.Len <= 0 {
				t.Logf("non-positive block in %s", dt.Name())
				return false
			}
			sum += b.Len
		}
		if sum != dt.Size() {
			t.Logf("%s: blocks sum %d, size %d", dt.Name(), sum, dt.Size())
			return false
		}
		var sigSum int64
		sizes := map[Primitive]int64{PrimByte: 1, PrimChar: 1, PrimInt32: 4, PrimInt64: 8, PrimFloat32: 4, PrimFloat64: 8}
		for _, s := range dt.Signature() {
			sigSum += s.Count * sizes[s.Prim]
		}
		if sigSum != dt.Size() {
			t.Logf("%s: sig bytes %d, size %d", dt.Name(), sigSum, dt.Size())
			return false
		}
		// Note: TrueExtent may legitimately exceed Extent (MPI allows
		// data to stick out of the extent, e.g. a subarray over a base
		// with a positive lower bound), so no relation is asserted.
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBlocksWithinTrueBounds(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 3)
		for _, b := range dt.Flat() {
			if b.Off < dt.TrueLB() || b.Off+b.Len > dt.TrueLB()+dt.TrueExtent() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPackUnpackRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 3)
		count := r.Intn(4)
		span := dt.Span(count)
		if span < 0 || span > 1<<22 {
			return true // skip pathological extents
		}
		src := make([]byte, span)
		r.Read(src)

		c := NewConverter(dt, count)
		packed := make([]byte, c.Total())
		// Pack in random fragments.
		for !c.Done() {
			sz := int64(r.Intn(97) + 1)
			if rem := c.Remaining(); sz > rem {
				sz = rem
			}
			off := c.Packed()
			if got := c.Pack(packed[off:off+sz], src); got != sz {
				return false
			}
		}

		dst := make([]byte, span)
		u := NewConverter(dt, count)
		for !u.Done() {
			sz := int64(r.Intn(89) + 1)
			if rem := u.Remaining(); sz > rem {
				sz = rem
			}
			off := u.Packed()
			if got := u.Unpack(dst, packed[off:off+sz]); got != sz {
				return false
			}
		}
		return bytes.Equal(refPack(dt, count, dst), packed)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPlanVectorExpandsToBlocks(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 2)
		count := r.Intn(3) + 1
		v, ok := dt.Vector(count)
		if !ok {
			return true
		}
		// Expanding the vector must reproduce the converter's blocks.
		var viewBlocks []Block
		for i := int64(0); i < v.NumBlocks(); i++ {
			viewBlocks = appendMerged(viewBlocks, Block{Off: v.BlockOff(i), Len: v.BlockLen})
		}
		var convBlocks []Block
		c := NewConverter(dt, count)
		c.Advance(c.Total(), func(memOff, packOff, n int64) {
			convBlocks = appendMerged(convBlocks, Block{Off: memOff, Len: n})
		})
		if len(viewBlocks) != len(convBlocks) {
			t.Logf("%s count %d: view %d blocks, conv %d", dt.Name(), count, len(viewBlocks), len(convBlocks))
			return false
		}
		for i := range viewBlocks {
			if viewBlocks[i] != convBlocks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSignatureSelfMatch(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randType(r, 3)
		count := r.Intn(5)
		if !SignaturesMatch(dt, count, dt, count) {
			return false
		}
		// A type always signature-matches its packed contiguous form,
		// expressed as repeated primitives.
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
