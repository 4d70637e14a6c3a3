// Package datatype implements an MPI derived-datatype (DDT) engine in the
// style of Open MPI: constructors for contiguous, vector, indexed, struct
// and subarray layouts; flattening into an optimized list of contiguous
// blocks; type signatures for send/receive matching; and resumable
// pack/unpack converters that support the fragment-at-a-time operation
// the pipelined protocols need.
//
// Displacements are relative to the datatype origin. Constructors panic
// on structurally invalid arguments (negative counts or block lengths),
// mirroring how MPI aborts on invalid type construction. Types returned
// by constructors are immutable and already committed — Commit is kept
// for MPI API fidelity and returns the receiver.
package datatype

import (
	"fmt"
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

func (pr Primitive) String() string {
	switch pr {
	case PrimByte:
		return "MPI_BYTE"
	case PrimChar:
		return "MPI_CHAR"
	case PrimInt32:
		return "MPI_INT32"
	case PrimInt64:
		return "MPI_INT64"
	case PrimFloat32:
		return "MPI_FLOAT"
	case PrimFloat64:
		return "MPI_DOUBLE"
	default:
		return fmt.Sprintf("Primitive(%d)", int(pr))
	}
}

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

	flat []Block  // flattened blocks of one element, traversal order, merged
	sig  []SigRun // signature of one element

	planOnce sync.Once // guards planVal (compiled lazily, possibly from concurrent worlds)
	planVal  *Plan
}

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
	return d
}

func newPrimitive(name string, pr Primitive, size int64) *Datatype {
	d := &Datatype{
		kind: kindPrimitive,
		name: name,
		prim: pr,
		size: size,
		ub:   size,
		flat: []Block{{0, size}},
		sig:  []SigRun{{pr, 1}},
	}
	return d.finish()
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

// Commit is a no-op kept for MPI API fidelity (types are committed on
// construction); it returns the receiver for chaining.
func (d *Datatype) Commit() *Datatype { return d }

// Flat returns the flattened contiguous blocks of one element, in
// traversal order with adjacent blocks merged. The slice is a copy;
// callers may keep or modify it freely. Callers on a hot path that
// only read the blocks use Blocks, which does not allocate.
func (d *Datatype) Flat() []Block {
	out := make([]Block, len(d.flat))
	copy(out, d.flat)
	return out
}

// Blocks returns the same blocks as Flat without copying them. The
// slice is shared; do not modify it.
func (d *Datatype) Blocks() []Block { return d.flat }

// NumBlocks returns the number of contiguous blocks in one element.
func (d *Datatype) NumBlocks() int { return len(d.flat) }

// IsContiguous reports whether one element is a single gap-free block
// covering its whole extent from the origin.
func (d *Datatype) IsContiguous() bool {
	return len(d.flat) == 1 && d.flat[0].Off == 0 && d.flat[0].Len == d.Extent()
}

// Signature returns the run-length-encoded primitive signature of one
// element. The slice is shared; do not modify it.
func (d *Datatype) Signature() []SigRun { return d.sig }

func (d *Datatype) String() string { return d.name }

func checkBase(base *Datatype, who string) {
	if base == nil {
		panic("datatype: " + who + " with nil base type")
	}
}

// instantiate appends base's blocks displaced by disp to flat, merging
// with the previous block when exactly adjacent (the Open MPI optimized
// description).
func instantiate(flat []Block, base *Datatype, disp int64) []Block {
	for _, b := range base.flat {
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
	if n <= 0 {
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
	d := &Datatype{
		kind: kindContiguous,
		name: fmt.Sprintf("contig(%d,%s)", count, base.name),
		size: int64(count) * base.size,
	}
	if count > 0 {
		d.lb = base.lb
		d.ub = base.lb + int64(count)*base.Extent()
	}
	d.flat = instantiateN(d.flat, base, 0, int64(count))
	d.sig = appendSig(nil, base, int64(count))
	return d.finish()
}

// Vector returns count equally spaced blocks of blocklen base elements
// with strideElems base elements between block starts (MPI_Type_vector).
func Vector(count, blocklen, strideElems int, base *Datatype) *Datatype {
	checkBase(base, "Vector")
	return vector(count, blocklen, int64(strideElems)*base.Extent(), base,
		fmt.Sprintf("vector(%d,%d,%d,%s)", count, blocklen, strideElems, base.name))
}

// Hvector is Vector with the stride given in bytes
// (MPI_Type_create_hvector).
func Hvector(count, blocklen int, strideBytes int64, base *Datatype) *Datatype {
	checkBase(base, "Hvector")
	return vector(count, blocklen, strideBytes, base,
		fmt.Sprintf("hvector(%d,%d,%dB,%s)", count, blocklen, strideBytes, base.name))
}

func vector(count, blocklen int, strideBytes int64, base *Datatype, name string) *Datatype {
	if count < 0 || blocklen < 0 {
		panic("datatype: negative vector parameter")
	}
	d := &Datatype{
		kind: kindVector,
		name: name,
		size: int64(count) * int64(blocklen) * base.size,
	}
	blockSpan := int64(blocklen) * base.Extent()
	for i := 0; i < count; i++ {
		s := int64(i)*strideBytes + base.lb
		e := int64(i)*strideBytes + base.lb + blockSpan
		if i == 0 || s < d.lb {
			d.lb = s
		}
		if i == 0 || e > d.ub {
			d.ub = e
		}
		d.flat = instantiateN(d.flat, base, int64(i)*strideBytes, int64(blocklen))
	}
	d.sig = appendSig(nil, base, int64(count)*int64(blocklen))
	return d.finish()
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
	return indexed(blocklens, bd, base, fmt.Sprintf("indexed(%d blocks,%s)", len(blocklens), base.name))
}

// Hindexed is Indexed with byte displacements (MPI_Type_create_hindexed).
func Hindexed(blocklens []int, displsBytes []int64, base *Datatype) *Datatype {
	checkBase(base, "Hindexed")
	if len(blocklens) != len(displsBytes) {
		panic("datatype: Hindexed blocklens/displs length mismatch")
	}
	return indexed(blocklens, displsBytes, base, fmt.Sprintf("hindexed(%d blocks,%s)", len(blocklens), base.name))
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
	return indexed(bl, bd, base, fmt.Sprintf("indexedBlock(%d blocks of %d,%s)", len(displs), blocklen, base.name))
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
	d := &Datatype{kind: kindStruct, name: fmt.Sprintf("struct(%d members)", len(types))}
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
	total := int64(1)
	sub := int64(1)
	for i := 0; i < n; i++ {
		if subsizes[i] < 0 || starts[i] < 0 || starts[i]+subsizes[i] > sizes[i] {
			panic(fmt.Sprintf("datatype: Subarray dim %d out of range", i))
		}
		total *= int64(sizes[i])
		sub *= int64(subsizes[i])
	}
	d := &Datatype{
		kind: kindSubarray,
		name: fmt.Sprintf("subarray(%v of %v,%s)", subsizes, sizes, base.name),
		size: sub * base.size,
		lb:   0,
		ub:   total * base.Extent(),
	}

	// dims ordered from slowest to fastest varying.
	dims := make([]int, n)
	for i := range dims {
		if order == OrderC {
			dims[i] = i
		} else {
			dims[i] = n - 1 - i
		}
	}
	// strides[d] = elements stepped per unit of dimension d.
	strides := make([]int64, n)
	st := int64(1)
	for i := n - 1; i >= 0; i-- {
		strides[dims[i]] = st
		st *= int64(sizes[dims[i]])
	}
	var walk func(level int, elemOff int64)
	walk = func(level int, elemOff int64) {
		dim := dims[level]
		if level == n-1 {
			// Fastest dimension: one contiguous run of subsizes[dim]
			// base elements (strides[dim] == 1).
			start := elemOff + int64(starts[dim])
			d.flat = instantiateN(d.flat, base, start*base.Extent(), int64(subsizes[dim]))
			return
		}
		for j := 0; j < subsizes[dim]; j++ {
			walk(level+1, elemOff+(int64(starts[dim])+int64(j))*strides[dim])
		}
	}
	if sub > 0 {
		walk(0, 0)
	}
	d.sig = appendSig(nil, base, sub)
	return d.finish()
}

// Resized overrides the lower bound and extent of base
// (MPI_Type_create_resized).
func Resized(base *Datatype, lb, extent int64) *Datatype {
	checkBase(base, "Resized")
	d := &Datatype{
		kind: kindResized,
		name: fmt.Sprintf("resized(%s,lb=%d,extent=%d)", base.name, lb, extent),
		size: base.size,
		lb:   lb,
		ub:   lb + extent,
		flat: base.flat,
		sig:  base.sig,
	}
	return d.finish()
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
