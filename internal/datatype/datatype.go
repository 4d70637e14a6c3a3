// Package datatype implements an MPI derived-datatype (DDT) engine in the
// style of Open MPI: constructors for contiguous, vector, indexed, struct
// and subarray layouts; a TEMPI-style canonical strided form, which the
// strided constructors compose without flattening (canon.go); an
// optimized list of contiguous blocks, flattened by the irregular
// constructors and built on demand for the others; type signatures for
// send/receive matching; and resumable
// pack/unpack converters that support the fragment-at-a-time operation
// the pipelined protocols need.
//
// Displacements are relative to the datatype origin. Constructors panic
// on structurally invalid arguments (negative counts or block lengths),
// mirroring how MPI aborts on invalid type construction. Types returned
// by constructors are immutable and already committed: there is no
// Commit step.
package datatype

import (
	"fmt"
	"strconv"
	"sync"
)

// kind enumerates the datatype constructors.
type kind int

const (
	kindPrimitive kind = iota
	kindContiguous
	kindVector
	kindIndexed
	kindStruct
	kindSubarray
	kindResized
)

// Primitive identifies a base MPI type for signature matching.
type Primitive int

// Primitive type identifiers.
const (
	PrimByte Primitive = iota
	PrimChar
	PrimInt32
	PrimInt64
	PrimFloat32
	PrimFloat64
)

// Block is a contiguous run of bytes at Off (relative to the datatype
// origin) of length Len.
type Block struct {
	Off, Len int64
}

// SigRun is a run-length-encoded element of a type signature.
type SigRun struct {
	Prim  Primitive
	Count int64
}

// Datatype is an immutable MPI derived datatype.
type Datatype struct {
	kind kind
	name string
	prim Primitive

	size   int64 // bytes of data in one element
	lb, ub int64 // extent bounds
	tlb    int64 // true lower bound (first data byte)
	tub    int64 // true upper bound (one past last data byte)

	// canon is the layout's canonical strided form, nil for a layout
	// of no blocks or an irregular one. A type born canonical (see
	// canon.go) builds flat from it on first use, under flatOnce;
	// every other type flattens eagerly and finds canon over its list.
	// An irregular layout keeps prefix[i], the packed bytes before
	// flat[i] (len(flat)+1 entries), so a seek is a binary search.
	canon    *CanonVec
	flatOnce sync.Once
	flat     []Block  // flattened blocks of one element, traversal order, merged
	prefix   []int64  // irregular layouts only
	sig      []SigRun // signature of one element
}

// finish completes a type that flattened its element: the true bounds
// from its list, the canonical form over it and, failing one, the
// prefix sums.
func (d *Datatype) finish() *Datatype {
	if len(d.flat) > 0 {
		d.tlb = d.flat[0].Off
		d.tub = d.flat[0].Off + d.flat[0].Len
		for _, b := range d.flat[1:] {
			if b.Off < d.tlb {
				d.tlb = b.Off
			}
			if e := b.Off + b.Len; e > d.tub {
				d.tub = e
			}
		}
	}
	if d.canon = detectCanon(d.flat); d.canon == nil {
		d.prefix = make([]int64, len(d.flat)+1)
		for i, b := range d.flat {
			d.prefix[i+1] = d.prefix[i] + b.Len
		}
	}
	return d
}

// born completes a type born canonical with layout cv (nil: no blocks);
// its list waits for Blocks.
func (d *Datatype) born(cv *CanonVec) *Datatype {
	d.canon = cv
	if cv != nil {
		d.tlb, d.tub = cv.trueBounds()
	}
	return d
}

func newPrimitive(name string, pr Primitive, size int64) *Datatype {
	d := &Datatype{
		kind: kindPrimitive,
		name: name,
		prim: pr,
		size: size,
		ub:   size,
		sig:  []SigRun{{pr, 1}},
	}
	return d.born(&CanonVec{Off: 0, BlockLen: size, Inner: 1, InnerStride: size, Outer: 1, OuterStride: size})
}

// The MPI primitive datatypes.
var (
	Byte    = newPrimitive("MPI_BYTE", PrimByte, 1)
	Char    = newPrimitive("MPI_CHAR", PrimChar, 1)
	Int32   = newPrimitive("MPI_INT32", PrimInt32, 4)
	Int64   = newPrimitive("MPI_INT64", PrimInt64, 8)
	Float32 = newPrimitive("MPI_FLOAT", PrimFloat32, 4)
	Float64 = newPrimitive("MPI_DOUBLE", PrimFloat64, 8)
)

// Name returns a human-readable description of the datatype.
func (d *Datatype) Name() string { return d.name }

// Size returns the number of data bytes in one element.
func (d *Datatype) Size() int64 { return d.size }

// Extent returns the span used when iterating consecutive elements.
func (d *Datatype) Extent() int64 { return d.ub - d.lb }

// LB returns the lower bound.
func (d *Datatype) LB() int64 { return d.lb }

// UB returns the upper bound.
func (d *Datatype) UB() int64 { return d.ub }

// TrueLB returns the offset of the first data byte.
func (d *Datatype) TrueLB() int64 { return d.tlb }

// TrueExtent returns the span from the first to one past the last data
// byte.
func (d *Datatype) TrueExtent() int64 { return d.tub - d.tlb }

// Span returns the memory footprint of count consecutive elements
// measured from the origin: one past the last data byte of the last
// element, (count-1)·Extent + TrueLB + TrueExtent. It is what a buffer
// whose byte 0 is the datatype origin must hold; zero elements span
// zero bytes.
func (d *Datatype) Span(count int) int64 {
	if count == 0 {
		return 0
	}
	return int64(count-1)*d.Extent() + d.TrueLB() + d.TrueExtent()
}

// Blocks returns the flattened contiguous blocks of one element, in
// traversal order with adjacent blocks merged. The slice is shared; do
// not modify it. A type born canonical builds it on the first call;
// walks go through NumBlocks and Block, which never need it.
func (d *Datatype) Blocks() []Block {
	if d.canon != nil {
		d.flatOnce.Do(func() {
			if d.flat == nil {
				d.flat = d.canon.blocks()
			}
		})
	}
	return d.flat
}

// NumBlocks returns the number of contiguous blocks in one element.
func (d *Datatype) NumBlocks() int {
	if cv := d.canon; cv != nil {
		return int(cv.NumBlocks())
	}
	return len(d.flat)
}

// Block returns block i of the element: by arithmetic for a canonical
// layout, which has no list to read.
func (d *Datatype) Block(i int) Block {
	if cv := d.canon; cv != nil {
		return Block{Off: cv.BlockOff(int64(i)), Len: cv.BlockLen}
	}
	return d.flat[i]
}

// Canonical returns the canonical strided form, or nil for irregular
// layouts and layouts of no blocks.
func (d *Datatype) Canonical() *CanonVec { return d.canon }

// Dense reports whether count repetitions of the element occupy one
// gap-free window of memory, and if so where: n packed bytes at offset
// off from the data origin, packed byte p living at off+p. That is an
// element of a single block which either is not repeated or tiles
// (block length == extent). This is the one definition of "dense":
// the converter's single-copy path, the contiguous protocol window in
// mpi and Vector's one-block arm all ask here. A zero count has no
// window.
func (d *Datatype) Dense(count int) (off, n int64, ok bool) {
	cv := d.canon
	if cv == nil || cv.NumBlocks() != 1 || count < 1 {
		return 0, 0, false
	}
	if count > 1 && cv.BlockLen != d.Extent() {
		return 0, 0, false
	}
	return cv.Off, int64(count) * cv.BlockLen, true
}

// Vector returns the (element, count) pattern of a send or receive as
// one evenly strided run of equal blocks (Outer == 1) — the form the
// GPU engine's vector kernel takes — and false if the pattern is not
// one. A dense window is one block; an element of one block repeats at
// the extent; an element of several continues its stride into the next
// only when the extent is InnerStride × Inner. A zero count is a vector
// of no blocks unless the element has none.
func (d *Datatype) Vector(count int) (CanonVec, bool) {
	cv := d.canon
	if count < 0 || cv == nil || cv.Outer != 1 {
		return CanonVec{}, false
	}
	if count == 0 {
		return CanonVec{}, true
	}
	if off, n, ok := d.Dense(count); ok {
		return CanonVec{Off: off, BlockLen: n, Inner: 1, InnerStride: n, Outer: 1, OuterStride: n}, true
	}
	v, ext := *cv, d.Extent()
	switch {
	case count == 1:
		return v, true
	case v.Inner == 1:
		v.InnerStride = ext
	case ext != v.InnerStride*v.Inner:
		return CanonVec{}, false
	}
	v.Inner *= int64(count)
	v.OuterStride = v.Inner * v.InnerStride
	return v, true
}

// IsContiguous reports whether one element is a single gap-free block
// covering its whole extent from the origin.
func (d *Datatype) IsContiguous() bool {
	cv := d.canon
	return cv != nil && cv.NumBlocks() == 1 && cv.Off == 0 && cv.BlockLen == d.Extent()
}

// Signature returns the run-length-encoded primitive signature of one
// element. The slice is shared; do not modify it.
func (d *Datatype) Signature() []SigRun { return d.sig }

func checkBase(base *Datatype, who string) {
	if base == nil {
		panic("datatype: " + who + " with nil base type")
	}
}

// instantiate appends base's blocks displaced by disp to flat, merging
// with the previous block when exactly adjacent (the Open MPI optimized
// description).
func instantiate(flat []Block, base *Datatype, disp int64) []Block {
	for _, b := range base.Blocks() {
		flat = appendMerged(flat, Block{Off: disp + b.Off, Len: b.Len})
	}
	return flat
}

func appendMerged(flat []Block, nb Block) []Block {
	if nb.Len == 0 {
		return flat
	}
	if n := len(flat); n > 0 && flat[n-1].Off+flat[n-1].Len == nb.Off {
		flat[n-1].Len += nb.Len
		return flat
	}
	return append(flat, nb)
}

// instantiateN appends n consecutive copies of base (spaced by its
// extent) starting at disp. When base tiles densely (contiguous with
// extent == size) the whole run collapses to one block, keeping
// flattening O(blocks) instead of O(elements).
func instantiateN(flat []Block, base *Datatype, disp int64, n int64) []Block {
	if n <= 0 {
		return flat
	}
	if base.IsContiguous() && base.lb == 0 {
		return appendMerged(flat, Block{Off: disp, Len: n * base.size})
	}
	for i := int64(0); i < n; i++ {
		flat = instantiate(flat, base, disp+i*base.Extent())
	}
	return flat
}

// appendSig appends base's signature n times (run-length merged).
func appendSig(sig []SigRun, base *Datatype, n int64) []SigRun {
	if n <= 0 || len(base.sig) == 0 {
		return sig
	}
	for rep := int64(0); rep < n; rep++ {
		for _, r := range base.sig {
			if m := len(sig); m > 0 && sig[m-1].Prim == r.Prim {
				sig[m-1].Count += r.Count
			} else {
				sig = append(sig, r)
			}
		}
		// All runs merged into one? Then multiplying is cheap.
		if len(base.sig) == 1 && len(sig) > 0 && sig[len(sig)-1].Prim == base.sig[0].Prim {
			sig[len(sig)-1].Count += base.sig[0].Count * (n - rep - 1)
			break
		}
	}
	return sig
}

// Contiguous returns a type of count consecutive base elements
// (MPI_Type_contiguous).
func Contiguous(count int, base *Datatype) *Datatype {
	checkBase(base, "Contiguous")
	if count < 0 {
		panic("datatype: negative count")
	}
	var buf [nameLen]byte
	d := &Datatype{
		kind: kindContiguous,
		name: text(buf[:0]).s("contig(").i(int64(count)).s(",").s(base.name).s(")").String(),
		size: int64(count) * base.size,
		sig:  appendSig(nil, base, int64(count)),
	}
	if count > 0 {
		d.lb = base.lb
		d.ub = base.lb + int64(count)*base.Extent()
	}
	return d.tile(base, 0, []level{{int64(count), base.Extent()}})
}

// Vector returns count equally spaced blocks of blocklen base elements
// with strideElems base elements between block starts (MPI_Type_vector).
func Vector(count, blocklen, strideElems int, base *Datatype) *Datatype {
	checkBase(base, "Vector")
	var buf [nameLen]byte
	return vector(count, blocklen, int64(strideElems)*base.Extent(), base,
		text(buf[:0]).s("vector(").i(int64(count)).s(",").i(int64(blocklen)).s(",").i(int64(strideElems)).s(",").s(base.name).s(")").String())
}

// Hvector is Vector with the stride given in bytes
// (MPI_Type_create_hvector).
func Hvector(count, blocklen int, strideBytes int64, base *Datatype) *Datatype {
	checkBase(base, "Hvector")
	var buf [nameLen]byte
	return vector(count, blocklen, strideBytes, base,
		text(buf[:0]).s("hvector(").i(int64(count)).s(",").i(int64(blocklen)).s(",").i(strideBytes).s("B,").s(base.name).s(")").String())
}

func vector(count, blocklen int, strideBytes int64, base *Datatype, name string) *Datatype {
	if count < 0 || blocklen < 0 {
		panic("datatype: negative vector parameter")
	}
	d := &Datatype{
		kind: kindVector,
		name: name,
		size: int64(count) * int64(blocklen) * base.size,
		sig:  appendSig(nil, base, int64(count)*int64(blocklen)),
	}
	if count > 0 {
		// Block i spans [i*stride, i*stride + blocklen*extent) past
		// base.lb; the first and last blocks bound them all.
		reach := int64(count-1) * strideBytes
		d.lb = base.lb + min(reach, 0)
		d.ub = base.lb + max(reach, 0) + int64(blocklen)*base.Extent()
	}
	return d.tile(base, 0, []level{{int64(blocklen), base.Extent()}, {int64(count), strideBytes}})
}

// Indexed returns blocks of blocklens[i] base elements displaced by
// displs[i] base elements (MPI_Type_indexed).
func Indexed(blocklens, displs []int, base *Datatype) *Datatype {
	checkBase(base, "Indexed")
	if len(blocklens) != len(displs) {
		panic("datatype: Indexed blocklens/displs length mismatch")
	}
	bd := make([]int64, len(displs))
	for i, v := range displs {
		bd[i] = int64(v) * base.Extent()
	}
	var buf [nameLen]byte
	return indexed(blocklens, bd, base, text(buf[:0]).s("indexed(").i(int64(len(blocklens))).s(" blocks,").s(base.name).s(")").String())
}

// Hindexed is Indexed with byte displacements (MPI_Type_create_hindexed).
func Hindexed(blocklens []int, displsBytes []int64, base *Datatype) *Datatype {
	checkBase(base, "Hindexed")
	if len(blocklens) != len(displsBytes) {
		panic("datatype: Hindexed blocklens/displs length mismatch")
	}
	var buf [nameLen]byte
	return indexed(blocklens, displsBytes, base, text(buf[:0]).s("hindexed(").i(int64(len(blocklens))).s(" blocks,").s(base.name).s(")").String())
}

// IndexedBlock returns equally sized blocks of blocklen base elements at
// element displacements displs (MPI_Type_create_indexed_block).
func IndexedBlock(blocklen int, displs []int, base *Datatype) *Datatype {
	checkBase(base, "IndexedBlock")
	bl := make([]int, len(displs))
	for i := range bl {
		bl[i] = blocklen
	}
	bd := make([]int64, len(displs))
	for i, v := range displs {
		bd[i] = int64(v) * base.Extent()
	}
	var buf [nameLen]byte
	return indexed(bl, bd, base, text(buf[:0]).s("indexedBlock(").i(int64(len(displs))).s(" blocks of ").i(int64(blocklen)).s(",").s(base.name).s(")").String())
}

func indexed(blocklens []int, displsBytes []int64, base *Datatype, name string) *Datatype {
	d := &Datatype{kind: kindIndexed, name: name}
	var total int64
	first := true
	for i, bl := range blocklens {
		if bl < 0 {
			panic("datatype: negative block length")
		}
		total += int64(bl)
		if bl == 0 {
			continue
		}
		s := displsBytes[i] + base.lb
		e := displsBytes[i] + base.lb + int64(bl)*base.Extent()
		if first || s < d.lb {
			d.lb = s
		}
		if first || e > d.ub {
			d.ub = e
		}
		first = false
		d.flat = instantiateN(d.flat, base, displsBytes[i], int64(bl))
	}
	d.size = total * base.size
	d.sig = appendSig(nil, base, total)
	return d.finish()
}

// Struct returns the most general constructor: blocklens[i] elements of
// types[i] at byte displacement displs[i] (MPI_Type_create_struct).
func Struct(blocklens []int, displs []int64, types []*Datatype) *Datatype {
	if len(blocklens) != len(displs) || len(blocklens) != len(types) {
		panic("datatype: Struct argument length mismatch")
	}
	var buf [nameLen]byte
	d := &Datatype{kind: kindStruct, name: text(buf[:0]).s("struct(").i(int64(len(types))).s(" members)").String()}
	first := true
	for i, bl := range blocklens {
		checkBase(types[i], "Struct")
		if bl < 0 {
			panic("datatype: negative block length")
		}
		d.size += int64(bl) * types[i].size
		if bl == 0 {
			continue
		}
		s := displs[i] + types[i].lb
		e := displs[i] + types[i].lb + int64(bl)*types[i].Extent()
		if first || s < d.lb {
			d.lb = s
		}
		if first || e > d.ub {
			d.ub = e
		}
		first = false
		d.flat = instantiateN(d.flat, types[i], displs[i], int64(bl))
		d.sig = appendSig(d.sig, types[i], int64(bl))
	}
	return d.finish()
}

// Order selects array storage order for Subarray.
type Order int

// Array storage orders.
const (
	OrderC       Order = iota // row-major: last dimension contiguous
	OrderFortran              // column-major: first dimension contiguous
)

// Subarray returns the type selecting an n-dimensional sub-block of an
// n-dimensional array of base elements (MPI_Type_create_subarray). Its
// extent is that of the full array, so consecutive elements tile
// consecutive arrays.
func Subarray(sizes, subsizes, starts []int, order Order, base *Datatype) *Datatype {
	checkBase(base, "Subarray")
	n := len(sizes)
	if len(subsizes) != n || len(starts) != n || n == 0 {
		panic("datatype: Subarray dimension mismatch")
	}
	sub := int64(1)
	for i := 0; i < n; i++ {
		if subsizes[i] < 0 || starts[i] < 0 || starts[i]+subsizes[i] > sizes[i] {
			panic(fmt.Sprintf("datatype: Subarray dim %d out of range", i))
		}
		sub *= int64(subsizes[i])
	}
	// One level per dimension, from the fastest varying, each stepping
	// the bytes of one index of that dimension.
	var lv [maxLevels]level
	levels, off, stride := lv[:0], int64(0), base.Extent()
	for i := 0; i < n; i++ {
		dm := i
		if order == OrderC {
			dm = n - 1 - i
		}
		off += int64(starts[dm]) * stride
		levels = append(levels, level{int64(subsizes[dm]), stride})
		stride *= int64(sizes[dm])
	}
	var buf [nameLen]byte
	d := &Datatype{
		kind: kindSubarray,
		name: text(buf[:0]).s("subarray(").ints(subsizes).s(" of ").ints(sizes).s(",").s(base.name).s(")").String(),
		size: sub * base.size,
		lb:   0,
		ub:   stride,
		sig:  appendSig(nil, base, sub),
	}
	return d.tile(base, off, levels)
}

// Resized overrides the lower bound and extent of base
// (MPI_Type_create_resized). It has base's blocks, so base's canonical
// form, or base's list and its prefix sums when base is irregular.
func Resized(base *Datatype, lb, extent int64) *Datatype {
	checkBase(base, "Resized")
	var buf [nameLen]byte
	d := &Datatype{
		kind: kindResized,
		name: text(buf[:0]).s("resized(").s(base.name).s(",lb=").i(lb).s(",extent=").i(extent).s(")").String(),
		size: base.size,
		lb:   lb,
		ub:   lb + extent,
		sig:  base.sig,
	}
	d.canon, d.tlb, d.tub = base.canon, base.tlb, base.tub
	if base.canon == nil {
		d.flat, d.prefix = base.flat, base.prefix
	}
	return d
}

// SignaturesMatch reports whether (da, countA) and (db, countB) describe
// the same sequence of primitive types, the MPI matching rule that lets
// a vector be received as contiguous (Fig. 11's FFT reshape).
func SignaturesMatch(da *Datatype, countA int, db *Datatype, countB int) bool {
	return sigCompare(da, countA, db, countB, false)
}

// SignaturePrefix reports whether (da, countA)'s primitive sequence is a
// prefix of (db, countB)'s: the MPI rule admitting a matched message
// shorter than the posted receive (partial receive, MPI_Get_count).
func SignaturePrefix(da *Datatype, countA int, db *Datatype, countB int) bool {
	return sigCompare(da, countA, db, countB, true)
}

// sigCursor walks the primitive sequence of (datatype, count) a run at a
// time: n primitives of prim are current, reps whole elements plus the
// runs of sig from i on are still to come, and done elements have been
// loaded completely. An element that is a single run is folded at the
// start into one run of Count*count, so (Byte, 1<<30) is one step.
type sigCursor struct {
	sig  []SigRun
	reps int64
	done int64
	i    int
	n    int64
	prim Primitive
}

func newSigCursor(d *Datatype, count int) sigCursor {
	c := sigCursor{sig: d.sig}
	switch {
	case count <= 0 || len(d.sig) == 0:
	case len(d.sig) == 1:
		c.n, c.prim = d.sig[0].Count*int64(count), d.sig[0].Prim
	default:
		c.reps = int64(count)
	}
	return c
}

// load makes the next run current; n stays zero once the sequence is
// exhausted.
func (c *sigCursor) load() {
	for c.n == 0 && c.reps > 0 {
		r := c.sig[c.i]
		c.n, c.prim = r.Count, r.Prim
		if c.i++; c.i == len(c.sig) {
			c.i = 0
			c.reps--
			c.done++
		}
	}
}

// sigCompare compares the two primitive sequences by run. Identical
// arguments answer at once. Whenever both sides stand on an element
// boundary, the done elements behind them have matched and the same
// stretch repeats, so every whole repetition of it that both sides
// still hold is skipped by arithmetic; the walk is bounded by one such
// period plus a remainder, not by the counts. It allocates nothing.
func sigCompare(da *Datatype, countA int, db *Datatype, countB int, prefix bool) bool {
	if da == db && countA == countB {
		return true
	}
	a, b := newSigCursor(da, countA), newSigCursor(db, countB)
	for {
		if a.n == 0 && b.n == 0 && a.i == 0 && b.i == 0 && a.done > 0 && b.done > 0 {
			k := a.reps / a.done
			if kb := b.reps / b.done; kb < k {
				k = kb
			}
			a.reps -= k * a.done
			b.reps -= k * b.done
		}
		a.load()
		b.load()
		switch {
		case a.n == 0 && b.n == 0:
			return true
		case a.n == 0:
			return prefix // A exhausted first: a valid partial message
		case b.n == 0:
			return false
		case a.prim != b.prim:
			return false
		}
		m := a.n
		if b.n < m {
			m = b.n
		}
		a.n -= m
		b.n -= m
	}
}

// nameLen sizes the stack buffer a constructor builds its name in; a
// longer name grows it on the heap.
const nameLen = 128

// text builds a constructor's name by appending to a buffer on the
// caller's stack, so the name costs the one allocation of its string,
// where fmt boxes every argument. Its output is fmt's: ints prints an
// []int as %v does.
type text []byte

func (t text) s(v string) text { return append(t, v...) }
func (t text) i(v int64) text  { return strconv.AppendInt(t, v, 10) }

func (t text) ints(v []int) text {
	t = append(t, '[')
	for k, x := range v {
		if k > 0 {
			t = append(t, ' ')
		}
		t = t.i(int64(x))
	}
	return append(t, ']')
}

func (t text) String() string { return string(t) }
