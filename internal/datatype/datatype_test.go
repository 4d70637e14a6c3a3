package datatype

import (
	"reflect"
	"testing"
	"time"
)

func TestPrimitives(t *testing.T) {
	cases := []struct {
		dt   *Datatype
		size int64
	}{{Byte, 1}, {Char, 1}, {Int32, 4}, {Int64, 8}, {Float32, 4}, {Float64, 8}}
	for _, c := range cases {
		if c.dt.Size() != c.size || c.dt.Extent() != c.size {
			t.Errorf("%s: size %d extent %d", c.dt.Name(), c.dt.Size(), c.dt.Extent())
		}
		if !c.dt.IsContiguous() {
			t.Errorf("%s not contiguous", c.dt.Name())
		}
	}
}

func TestContiguous(t *testing.T) {
	d := Contiguous(10, Float64)
	if d.Size() != 80 || d.Extent() != 80 {
		t.Fatalf("size %d extent %d", d.Size(), d.Extent())
	}
	if !d.IsContiguous() || d.NumBlocks() != 1 {
		t.Fatalf("flat = %v", d.Flat())
	}
	if want := []SigRun{{PrimFloat64, 10}}; !reflect.DeepEqual(d.Signature(), want) {
		t.Fatalf("sig = %v", d.Signature())
	}
}

func TestVectorLayout(t *testing.T) {
	d := Vector(3, 2, 4, Float64)
	want := []Block{{0, 16}, {32, 16}, {64, 16}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
	if d.Size() != 48 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.Extent() != 80 { // ((3-1)*4+2)*8
		t.Fatalf("extent = %d", d.Extent())
	}
	v, ok := d.Vector(1)
	if !ok || v.Inner != 3 || v.BlockLen != 16 || v.InnerStride != 32 || v.Off != 0 {
		t.Fatalf("vector = %+v", v)
	}
}

func TestVectorDenseMergesToContiguous(t *testing.T) {
	d := Vector(5, 3, 3, Float64) // stride == blocklen
	if !d.IsContiguous() || d.NumBlocks() != 1 {
		t.Fatalf("flat = %v", d.Flat())
	}
	if d.Size() != 120 || d.Extent() != 120 {
		t.Fatalf("size %d extent %d", d.Size(), d.Extent())
	}
}

func TestHvectorByteStride(t *testing.T) {
	d := Hvector(2, 1, 13, Byte) // deliberately unaligned byte stride
	want := []Block{{0, 1}, {13, 1}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
	if d.Extent() != 14 {
		t.Fatalf("extent = %d", d.Extent())
	}
}

// lowerTriangular builds the paper's indexed lower-triangular matrix type:
// column i of an n x n column-major matrix keeps elements i..n-1.
func lowerTriangular(n int) *Datatype {
	bl := make([]int, n)
	displs := make([]int, n)
	for i := 0; i < n; i++ {
		bl[i] = n - i
		displs[i] = i*n + i
	}
	return Indexed(bl, displs, Float64)
}

func TestIndexedTriangular(t *testing.T) {
	d := lowerTriangular(4)
	want := []Block{{0, 32}, {40, 24}, {80, 16}, {120, 8}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
	if d.Size() != 10*8 {
		t.Fatalf("size = %d", d.Size())
	}
	if _, ok := d.Vector(1); ok {
		t.Fatal("triangular should not be a vector")
	}
	if want := []SigRun{{PrimFloat64, 10}}; !reflect.DeepEqual(d.Signature(), want) {
		t.Fatalf("sig = %v", d.Signature())
	}
}

func TestIndexedBlock(t *testing.T) {
	d := IndexedBlock(2, []int{0, 5, 9}, Int32)
	want := []Block{{0, 8}, {20, 8}, {36, 8}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
}

func TestStructMixed(t *testing.T) {
	// { int64 a; float32 b[3]; } with a trailing gap via displacements.
	d := Struct([]int{1, 3}, []int64{0, 8}, []*Datatype{Int64, Float32})
	if d.Size() != 8+12 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.NumBlocks() != 1 { // 8 bytes + 12 bytes adjacent -> merged
		t.Fatalf("flat = %v", d.Flat())
	}
	want := []SigRun{{PrimInt64, 1}, {PrimFloat32, 3}}
	if !reflect.DeepEqual(d.Signature(), want) {
		t.Fatalf("sig = %v", d.Signature())
	}
	// With a gap they stay separate.
	g := Struct([]int{1, 3}, []int64{0, 16}, []*Datatype{Int64, Float32})
	if g.NumBlocks() != 2 {
		t.Fatalf("gapped flat = %v", g.Flat())
	}
	if g.Extent() != 28 {
		t.Fatalf("gapped extent = %d", g.Extent())
	}
}

func TestSubarrayFortranEqualsVector(t *testing.T) {
	// A 4x3 sub-block starting at (1,2) of an 8x8 column-major array of
	// doubles equals columns: for c in 2..4, run of 4 doubles at 1+c*8.
	d := Subarray([]int{8, 8}, []int{4, 3}, []int{1, 2}, OrderFortran, Float64)
	want := []Block{{(1 + 2*8) * 8, 32}, {(1 + 3*8) * 8, 32}, {(1 + 4*8) * 8, 32}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
	if d.Extent() != 64*8 { // full array extent
		t.Fatalf("extent = %d", d.Extent())
	}
	if v, ok := d.Vector(1); !ok || v.Inner != 3 || v.BlockLen != 32 || v.InnerStride != 64 {
		t.Fatalf("vector = %+v", v)
	}
}

func TestSubarrayCOrder(t *testing.T) {
	// Row-major: last dim fastest. 2x2 at (0,1) of 3x4 int32.
	d := Subarray([]int{3, 4}, []int{2, 2}, []int{0, 1}, OrderC, Int32)
	want := []Block{{4, 8}, {20, 8}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
}

func TestResizedTiling(t *testing.T) {
	// A single double resized to extent 24, tiled 3 times: offsets 0,24,48.
	r := Resized(Float64, 0, 24)
	if r.Extent() != 24 || r.Size() != 8 {
		t.Fatalf("extent %d size %d", r.Extent(), r.Size())
	}
	d := Contiguous(3, r)
	want := []Block{{0, 8}, {24, 8}, {48, 8}}
	if !reflect.DeepEqual(d.Flat(), want) {
		t.Fatalf("flat = %v", d.Flat())
	}
}

func TestTrueBounds(t *testing.T) {
	d := Subarray([]int{8}, []int{2}, []int{3}, OrderC, Float64)
	if d.TrueLB() != 24 || d.TrueExtent() != 16 {
		t.Fatalf("tlb %d trueExtent %d", d.TrueLB(), d.TrueExtent())
	}
	if d.LB() != 0 || d.Extent() != 64 {
		t.Fatalf("lb %d extent %d", d.LB(), d.Extent())
	}
}

// TestSpan pins the one footprint formula: zero elements span nothing,
// one spans to its last data byte, and each further element adds an
// extent — the true bounds, not lb/ub, decide (a resized type whose
// lower bound is negative but whose data starts at 0). Every value is
// also the end of the last piece a converter emits.
func TestSpan(t *testing.T) {
	sub := Subarray([]int{4, 6}, []int{2, 3}, []int{1, 2}, OrderC, Float64)
	neg := Resized(Float64, -8, 24)
	for _, tc := range []struct {
		dt    *Datatype
		count int
		want  int64
	}{
		{Float64, 0, 0},
		{sub, 0, 0},
		{Float64, 1, 8},
		{Vector(3, 2, 5, Float64), 1, 96},
		{sub, 1, 136}, // TrueLB 64 (row 1, column 2) + TrueExtent 72
		{sub, 2, 328}, // one more 4x6 array
		{neg, 1, 8},
		{neg, 3, 56},
	} {
		if got := tc.dt.Span(tc.count); got != tc.want {
			t.Errorf("%s x%d: Span %d, want %d", tc.dt.Name(), tc.count, got, tc.want)
		}
		var end int64
		c := NewConverter(tc.dt, tc.count)
		c.Advance(c.Total(), func(memOff, _, n int64) { end = max(end, memOff+n) })
		if end != tc.want {
			t.Errorf("%s x%d: pieces end at %d, want %d", tc.dt.Name(), tc.count, end, tc.want)
		}
	}
}

func TestZeroCountTypes(t *testing.T) {
	d := Contiguous(0, Float64)
	if d.Size() != 0 || d.Extent() != 0 || d.NumBlocks() != 0 {
		t.Fatalf("zero contig: %+v", d)
	}
	v := Vector(0, 5, 7, Float64)
	if v.Size() != 0 || v.NumBlocks() != 0 {
		t.Fatalf("zero vector: %+v", v)
	}
	i := Indexed([]int{0, 0}, []int{3, 9}, Int32)
	if i.Size() != 0 || i.NumBlocks() != 0 {
		t.Fatalf("zero indexed: %+v", i)
	}
}

// TestEmptyBaseSignatureIsFree: repeating a type that holds no data
// repeats an empty signature, which costs nothing however large the
// count. Walking the empty run list once per repetition took 464 ms
// for 1<<28 copies, so 1<<40 would not finish.
func TestEmptyBaseSignatureIsFree(t *testing.T) {
	built := make(chan *Datatype, 1)
	go func() { built <- Vector(1<<40, 1, 1, Contiguous(0, Byte)) }()
	select {
	case d := <-built:
		if d.Size() != 0 || len(d.Signature()) != 0 || d.NumBlocks() != 0 {
			t.Fatalf("%s: size %d, signature %v, %d blocks", d, d.Size(), d.Signature(), d.NumBlocks())
		}
	case <-time.After(time.Second):
		t.Fatal("Vector(1<<40, 1, 1, Contiguous(0, Byte)) not built within 1 s")
	}
}

func TestPlanVector(t *testing.T) {
	// Sub-matrix: 4 columns of 4 doubles inside an 8-row matrix.
	d := Vector(4, 4, 8, Float64)
	// One element: count 4 stride 64. Extent = ((4-1)*8+4)*8 = 224.
	// 224 != 4*64, so two elements do NOT continue the stride.
	if v, ok := d.Vector(2); ok {
		t.Fatalf("expected no vector, got %+v", v)
	}
	if v, ok := d.Vector(1); !ok || v.Inner != 4 {
		t.Fatalf("count-1 vector = %+v", v)
	}
	// Resize the element so elements tile seamlessly: extent 4*64=256.
	r := Resized(d, 0, 256)
	if v, ok := r.Vector(3); !ok || v.Inner != 12 || v.InnerStride != 64 || v.BlockLen != 32 || v.Outer != 1 {
		t.Fatalf("tiled vector = %+v", v)
	}
	// One block per element: blocks repeat at the extent.
	col := Resized(Contiguous(2, Float64), 0, 48)
	if v, ok := col.Vector(3); !ok || v.Inner != 3 || v.InnerStride != 48 || v.BlockLen != 16 {
		t.Fatalf("one-block vector = %+v", v)
	}
	// Contiguous type: single growing block.
	ct := Contiguous(4, Float64)
	if v, ok := ct.Vector(5); !ok || v.Inner != 1 || v.BlockLen != 160 {
		t.Fatalf("contig vector = %+v", v)
	}
	// A two-level layout and an empty type are not vectors; a zero count
	// of a non-empty type is.
	if v, ok := Vector(2, 1, 2, Vector(2, 1, 5, Float64)).Vector(1); ok {
		t.Fatalf("two-level layout reported as vector: %+v", v)
	}
	if _, ok := Contiguous(0, Float64).Vector(0); ok {
		t.Fatal("empty type reported as vector")
	}
	if _, ok := d.Vector(0); !ok {
		t.Fatal("zero count of a vector is not a vector")
	}
}

func TestSignaturesMatch(t *testing.T) {
	vec := Vector(4, 2, 5, Float64) // 8 doubles
	contig := Contiguous(8, Float64)
	if !SignaturesMatch(vec, 1, contig, 1) {
		t.Fatal("vector(8 doubles) should match contiguous(8 doubles)")
	}
	if !SignaturesMatch(vec, 3, contig, 3) {
		t.Fatal("count-scaled match failed")
	}
	if SignaturesMatch(vec, 1, contig, 2) {
		t.Fatal("different totals must not match")
	}
	if SignaturesMatch(vec, 1, Contiguous(8, Int64), 1) {
		t.Fatal("different primitives must not match")
	}
	if !SignaturesMatch(Contiguous(2, Float64), 4, Contiguous(4, Float64), 2) {
		t.Fatal("run boundaries should not matter")
	}
	if !SignaturesMatch(vec, 0, contig, 0) {
		t.Fatal("two empty signatures should match")
	}
	mixed := Struct([]int{1, 1}, []int64{0, 8}, []*Datatype{Int64, Float64})
	if SignaturesMatch(mixed, 1, Contiguous(2, Float64), 1) {
		t.Fatal("int64+double must not match double+double")
	}
}

func TestInvalidConstructionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"negative contiguous", func() { Contiguous(-1, Float64) }},
		{"nil base", func() { Contiguous(1, nil) }},
		{"negative blocklen", func() { Vector(2, -1, 3, Float64) }},
		{"indexed mismatch", func() { Indexed([]int{1}, []int{0, 1}, Byte) }},
		{"subarray range", func() { Subarray([]int{4}, []int{3}, []int{2}, OrderC, Byte) }},
		{"struct mismatch", func() { Struct([]int{1}, []int64{0, 8}, []*Datatype{Int64}) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}
