package datatype

import (
	"bytes"
	"fmt"
	"testing"
)

// fillSeq writes a distinct byte pattern.
func fillSeq(b []byte) {
	for i := range b {
		b[i] = byte(i*7 + 13)
	}
}

// refPack packs (dt, count) from src using the flattened blocks directly.
func refPack(dt *Datatype, count int, src []byte) []byte {
	out := make([]byte, 0, int(dt.Size())*count)
	for r := 0; r < count; r++ {
		base := int64(r) * dt.Extent()
		for _, b := range dt.Flat() {
			out = append(out, src[base+b.Off:base+b.Off+b.Len]...)
		}
	}
	return out
}

var testLayouts = []struct {
	name  string
	dt    *Datatype
	count int
}{
	{"contig", Contiguous(37, Byte), 3},
	{"vector", Vector(5, 3, 7, Float64), 4},
	{"hvector-odd", Hvector(4, 3, 29, Byte), 5},
	{"triangular", lowerTriangular(9), 2},
	{"indexedblock", IndexedBlock(3, []int{0, 7, 11, 20}, Int32), 3},
	{"struct", Struct([]int{2, 3, 1}, []int64{0, 24, 48}, []*Datatype{Int64, Float32, Byte}), 2},
	{"subarray", Subarray([]int{6, 5}, []int{3, 2}, []int{2, 1}, OrderFortran, Float64), 2},
	{"transpose-ish", Vector(6, 1, 6, Float64), 6},
	{"empty", Contiguous(0, Float64), 4},
	{"zero-count", Vector(3, 2, 4, Float64), 0},
}

func TestPackMatchesReference(t *testing.T) {
	for _, tl := range testLayouts {
		t.Run(tl.name, func(t *testing.T) {
			span := tl.dt.Span(tl.count)
			src := make([]byte, span)
			fillSeq(src)
			want := refPack(tl.dt, tl.count, src)

			c := NewConverter(tl.dt, tl.count)
			if c.Total() != int64(len(want)) {
				t.Fatalf("Total = %d, want %d", c.Total(), len(want))
			}
			got := make([]byte, c.Total())
			if n := c.Pack(got, src); n != c.Total() {
				t.Fatalf("packed %d of %d", n, c.Total())
			}
			if !c.Done() {
				t.Fatal("not done after full pack")
			}
			if !bytes.Equal(got, want) {
				t.Fatal("packed bytes differ from reference")
			}
		})
	}
}

func TestFragmentedPackEqualsOneShot(t *testing.T) {
	for _, tl := range testLayouts {
		for _, frag := range []int64{1, 3, 13, 64, 1 << 20} {
			t.Run(fmt.Sprintf("%s/frag%d", tl.name, frag), func(t *testing.T) {
				span := tl.dt.Span(tl.count)
				src := make([]byte, span)
				fillSeq(src)
				want := refPack(tl.dt, tl.count, src)

				c := NewConverter(tl.dt, tl.count)
				var got []byte
				for !c.Done() {
					sz := frag
					if r := c.Remaining(); sz > r {
						sz = r
					}
					buf := make([]byte, sz)
					if n := c.Pack(buf, src); n != sz {
						t.Fatalf("fragment packed %d of %d", n, sz)
					}
					got = append(got, buf...)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("fragmented pack differs")
				}
			})
		}
	}
}

func TestUnpackInvertsPack(t *testing.T) {
	for _, tl := range testLayouts {
		t.Run(tl.name, func(t *testing.T) {
			span := tl.dt.Span(tl.count)
			src := make([]byte, span)
			fillSeq(src)
			packed := refPack(tl.dt, tl.count, src)

			dst := make([]byte, span)
			u := NewConverter(tl.dt, tl.count)
			// Unpack in uneven fragments.
			pos := 0
			for _, sz := range []int{1, 5, 17} {
				if pos+sz > len(packed) {
					break
				}
				u.Unpack(dst, packed[pos:pos+sz])
				pos += sz
			}
			if pos < len(packed) {
				u.Unpack(dst, packed[pos:])
			}
			// Every data byte must match; gaps stay zero.
			got := refPack(tl.dt, tl.count, dst)
			if !bytes.Equal(got, packed) {
				t.Fatal("unpack did not restore data bytes")
			}
		})
	}
}

func TestSeekMatchesSequential(t *testing.T) {
	dt := lowerTriangular(8)
	count := 3
	src := make([]byte, dt.Span(count))
	fillSeq(src)
	full := refPack(dt, count, src)

	for _, pos := range []int64{0, 1, 7, 63, 100, int64(len(full))} {
		c := NewConverter(dt, count)
		c.SeekTo(pos)
		if c.Packed() != pos {
			t.Fatalf("SeekTo(%d): Packed = %d", pos, c.Packed())
		}
		rest := make([]byte, c.Remaining())
		c.Pack(rest, src)
		if !bytes.Equal(rest, full[pos:]) {
			t.Fatalf("SeekTo(%d): tail mismatch", pos)
		}
	}
}

func TestAdvanceEmitsMonotonicPackedOffsets(t *testing.T) {
	dt := Vector(4, 2, 5, Float64)
	c := NewConverter(dt, 3)
	var last int64 = -1
	c.Advance(c.Total(), func(memOff, packOff, n int64) {
		if packOff <= last {
			t.Fatalf("packed offsets not monotonic: %d after %d", packOff, last)
		}
		if n <= 0 {
			t.Fatalf("empty emit")
		}
		last = packOff
	})
	if !c.Done() {
		t.Fatal("not done")
	}
}

// TestAdvanceEmptyElement: count > 0 of a type with no data is an empty
// layout, not a walk over a block list that has no entries.
func TestAdvanceEmptyElement(t *testing.T) {
	c := NewConverter(Contiguous(0, Byte), 3)
	emitted := false
	if n := c.Advance(8, func(memOff, packOff, n int64) { emitted = true }); n != 0 || emitted || !c.Done() {
		t.Fatalf("Advance(8) over three empty elements consumed %d bytes, emitted=%v, done=%v", n, emitted, c.Done())
	}
	if n := c.Pack(make([]byte, 8), nil); n != 0 {
		t.Fatalf("Pack over three empty elements packed %d bytes", n)
	}
}

func TestConverterMisuse(t *testing.T) {
	c := NewConverter(Contiguous(4, Byte), 1)
	for _, fn := range []func(){
		func() { c.Advance(-1, nil) },
		func() { c.SeekTo(-1) },
		func() { c.SeekTo(100) },
		func() { NewConverter(nil, 1) },
		func() { NewConverter(Byte, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}
