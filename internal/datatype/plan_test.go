package datatype

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// transposeLike builds the paper's matrix-transpose receive type: n
// single-element columns, a canonical two-level strided form.
func transposeLike(n int) *Datatype {
	return Contiguous(n, Resized(Vector(n, 1, n, Float64), 0, 8))
}

// triangularLike builds an irregular (non-canonical) indexed layout.
func triangularLike(n int) *Datatype {
	bl := make([]int, n)
	ds := make([]int, n)
	for i := 0; i < n; i++ {
		bl[i] = i + 1
		ds[i] = i * n
	}
	return Indexed(bl, ds, Float64)
}

func TestPlanCanonicalForms(t *testing.T) {
	cases := []struct {
		name string
		dt   *Datatype
		want *CanonVec
	}{
		{"primitive", Float64, &CanonVec{Off: 0, BlockLen: 8, Inner: 1, InnerStride: 8, Outer: 1, OuterStride: 8}},
		{"contig", Contiguous(16, Float64), &CanonVec{Off: 0, BlockLen: 128, Inner: 1, InnerStride: 128, Outer: 1, OuterStride: 128}},
		{"vector", Vector(8, 4, 16, Float64), &CanonVec{Off: 0, BlockLen: 32, Inner: 8, InnerStride: 128, Outer: 1, OuterStride: 1024}},
		{"transpose", transposeLike(4), &CanonVec{Off: 0, BlockLen: 8, Inner: 4, InnerStride: 32, Outer: 4, OuterStride: 8}},
		{"triangular", triangularLike(6), nil},
	}
	for _, c := range cases {
		got := c.dt.Canonical()
		if c.want == nil {
			if got != nil {
				t.Errorf("%s: expected no canonical form, got %+v", c.name, got)
			}
			continue
		}
		if got == nil {
			t.Errorf("%s: expected canonical form %+v, got none", c.name, c.want)
			continue
		}
		if *got != *c.want {
			t.Errorf("%s: canonical form %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestPlanBlocksMatchFlat checks that the type's block accessor (canon
// arithmetic or stored slice) reproduces the flattened form exactly.
func TestPlanBlocksMatchFlat(t *testing.T) {
	for _, dt := range []*Datatype{
		Float64,
		Contiguous(7, Int32),
		Vector(5, 3, 9, Float64),
		transposeLike(6),
		triangularLike(5),
		Struct([]int{2, 1, 3}, []int64{0, 40, 64}, []*Datatype{Int32, Float64, Char}),
	} {
		flat := dt.Flat()
		if dt.NumBlocks() != len(flat) {
			t.Errorf("%s: NumBlocks %d, list of %d", dt, dt.NumBlocks(), len(flat))
		}
		for i, b := range flat {
			if got := dt.Block(i); got != b {
				t.Errorf("%s: block %d = %+v, want %+v", dt, i, got, b)
			}
		}
	}
}

// TestSeekToMatchesReplay verifies SeekTo lands in exactly the state a
// full replay reaches: packing the remainder from a seeked converter
// must byte-match packing after Rewind+Advance. Resized over an
// irregular base seeks by its base's prefix sums.
func TestSeekToMatchesReplay(t *testing.T) {
	types := []struct {
		dt    *Datatype
		count int
	}{
		{Float64, 9},
		{Contiguous(4, Float64), 3},
		{Vector(6, 2, 5, Float64), 3},
		{transposeLike(5), 2},
		{triangularLike(6), 2},
		{Resized(triangularLike(6), 0, 400), 3},
		{Struct([]int{2, 1, 3}, []int64{0, 40, 64}, []*Datatype{Int32, Float64, Char}), 4},
	}
	for _, tc := range types {
		dt, count := tc.dt, tc.count
		ext := dt.Extent()
		span := int64(count)*ext + dt.TrueExtent() // generous data region
		src := make([]byte, span)
		for i := range src {
			src[i] = byte(i*131 + 17)
		}
		total := int64(count) * dt.Size()
		positions := []int64{0, 1, total / 3, total / 2, total - 1, total}
		for p := int64(0); p < total; p += 7 {
			positions = append(positions, p)
		}
		for _, pos := range positions {
			if pos < 0 || pos > total {
				continue
			}
			want := make([]byte, total-pos)
			ref := NewConverter(dt, count)
			ref.Rewind()
			ref.Advance(pos, nil) // replay reference
			ref.Pack(want, src)

			got := make([]byte, total-pos)
			c := NewConverter(dt, count)
			c.Advance(total, nil) // scramble state first
			c.SeekTo(pos)
			if c.Packed() != pos {
				t.Fatalf("%s: SeekTo(%d) reports Packed()=%d", dt, pos, c.Packed())
			}
			c.Pack(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s count=%d: pack after SeekTo(%d) differs from replay", dt, count, pos)
			}
		}
	}
}

// TestAdvanceCanonEmissions checks the canonical walk emits exactly the
// pieces of the generic flat walk, including across fragment boundaries.
func TestAdvanceCanonEmissions(t *testing.T) {
	dt := transposeLike(6)
	if dt.Canonical() == nil {
		t.Fatal("transpose should be canonical")
	}
	count := 3
	type piece struct{ mem, pack, n int64 }
	collect := func(frag int64) []piece {
		var out []piece
		c := NewConverter(dt, count)
		for !c.Done() {
			c.Advance(frag, func(m, p, n int64) { out = append(out, piece{m, p, n}) })
		}
		return out
	}
	// Reference: walk the flattened blocks directly.
	var want []piece
	var packed int64
	ext := dt.Extent()
	for rep := int64(0); rep < int64(count); rep++ {
		for _, b := range dt.Flat() {
			want = append(want, piece{rep*ext + b.Off, packed, b.Len})
			packed += b.Len
		}
	}
	whole := collect(dt.Size() * int64(count))
	if fmt.Sprint(whole) != fmt.Sprint(want) {
		t.Fatalf("whole-message emissions differ:\n got %v\nwant %v", whole, want)
	}
	// Fragmented: pieces may split at fragment bounds; re-merging by
	// coalescing adjacent pieces must reproduce the whole-message walk.
	frag := collect(13)
	var merged []piece
	for _, p := range frag {
		if n := len(merged); n > 0 && merged[n-1].mem+merged[n-1].n == p.mem && merged[n-1].pack+merged[n-1].n == p.pack {
			merged[n-1].n += p.n
			continue
		}
		merged = append(merged, p)
	}
	if fmt.Sprint(merged) != fmt.Sprint(want) {
		t.Fatalf("fragmented emissions differ after merge:\n got %v\nwant %v", merged, want)
	}
}

// TestFlatIsImmutable is the regression test for Flat leaking the
// internal slice: mutating the returned slice must not corrupt the type.
func TestFlatIsImmutable(t *testing.T) {
	dt := Vector(4, 2, 6, Float64)
	before := dt.Flat()
	leaked := dt.Flat()
	for i := range leaked {
		leaked[i] = Block{Off: -999, Len: -999}
	}
	after := dt.Flat()
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("block %d changed after caller mutation: %+v -> %+v", i, before[i], after[i])
		}
	}
	// The converter must still walk the original layout.
	src := make([]byte, int64(4)*dt.Extent()+dt.TrueExtent())
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, dt.Size())
	c := NewConverter(dt, 1)
	if n := c.Pack(dst, src); n != dt.Size() {
		t.Fatalf("pack after mutation consumed %d bytes, want %d", n, dt.Size())
	}
}

// TestPlanConcurrent seeks and packs the same shared datatypes from
// many goroutines (the parallel bench driver walks the global
// primitives from separate worlds); run with -race. Every goroutine
// must pack what a serial pack does.
func TestPlanConcurrent(t *testing.T) {
	types := []*Datatype{Float64, Vector(16, 2, 4, Float64), transposeLike(6), triangularLike(6), Resized(triangularLike(6), 0, 400)}
	const count = 4
	srcs, wants := make([][]byte, len(types)), make([][]byte, len(types))
	for i, dt := range types {
		srcs[i] = make([]byte, dt.Span(count))
		for j := range srcs[i] {
			srcs[i][j] = byte(j*131 + 17)
		}
		wants[i] = PackImage(dt, count, srcs[i])
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, dt := range types {
				c := NewConverter(dt, count)
				half := c.Total() / 2
				c.SeekTo(half)
				got := make([]byte, c.Total()-half)
				c.Pack(got, srcs[i])
				if !bytes.Equal(got, wants[i][half:]) {
					t.Errorf("%s: pack after SeekTo(%d) differs from the serial pack", dt, half)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkConverterSeek shows SeekTo is sublinear in the layout's block
// count: ns/op must stay near-flat as B grows 64x.
func BenchmarkConverterSeek(b *testing.B) {
	for _, n := range []int{128, 512, 2048} { // triangular: B = n blocks
		dt := triangularLike(n)
		b.Run(fmt.Sprintf("generic_B%d", dt.NumBlocks()), func(b *testing.B) {
			c := NewConverter(dt, 4)
			total := c.Total()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SeekTo(rng.Int63n(total + 1))
			}
		})
	}
	for _, n := range []int{64, 256, 1024} { // transpose: B = n*n blocks
		dt := transposeLike(n)
		b.Run(fmt.Sprintf("canon_B%d", dt.NumBlocks()), func(b *testing.B) {
			c := NewConverter(dt, 2)
			total := c.Total()
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SeekTo(rng.Int63n(total + 1))
			}
		})
	}
	_ = triangularLike // keep helpers referenced even if cases change
}
