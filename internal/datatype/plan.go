package datatype

import "sort"

// CanonVec is the canonical strided form of a flattened layout: up to two
// nesting levels of equally sized, equally spaced blocks. Block i (of
// Inner*Outer total) starts at
//
//	Off + (i/Inner)*OuterStride + (i%Inner)*InnerStride
//
// and is BlockLen bytes long. Outer == 1 degenerates to a plain vector;
// Inner == Outer == 1 to a single contiguous block. This is the
// TEMPI-style canonicalization: nested constructor trees (for example a
// contiguous-of-resized-vector matrix transpose) collapse to six integers,
// so seeks become arithmetic and walks never touch the flattened slice.
type CanonVec struct {
	Off         int64
	BlockLen    int64
	Inner       int64 // blocks per inner run
	InnerStride int64 // byte stride between blocks within a run
	Outer       int64 // number of inner runs
	OuterStride int64 // byte stride between run starts
}

// NumBlocks returns the total block count of the canonical form.
func (cv *CanonVec) NumBlocks() int64 { return cv.Inner * cv.Outer }

// BlockOff returns the memory offset of block i.
func (cv *CanonVec) BlockOff(i int64) int64 {
	return cv.Off + (i/cv.Inner)*cv.OuterStride + (i%cv.Inner)*cv.InnerStride
}

// Plan is the compiled form of one element's layout: the canonical
// strided description when one exists, otherwise packed-byte prefix sums
// over the flattened blocks. Converters use it to position themselves at
// an arbitrary packed offset in O(1) (canonical) or O(log B) (generic)
// instead of replaying the whole layout, and to walk canonical layouts
// arithmetically without touching the block slice.
type Plan struct {
	extent int64     // spacing of consecutive elements
	canon  *CanonVec // non-nil when the layout is canonically strided
	blocks []Block   // otherwise: the datatype's flattened form,
	prefix []int64   // and prefix[i] = packed bytes before block i; len B+1
}

// Canonical returns the canonical strided form, or nil for irregular
// layouts.
func (pl *Plan) Canonical() *CanonVec { return pl.canon }

// Dense reports whether count repetitions of the element occupy one
// gap-free window of memory, and if so where: n packed bytes at offset
// off from the data origin, packed byte p living at off+p. That is an
// element of a single block which either is not repeated or tiles
// (block length == extent). This is the one definition of "dense":
// the converter's single-copy path, the contiguous protocol window in
// mpi and Vector's one-block arm all ask here. A zero count has no
// window.
func (pl *Plan) Dense(count int) (off, n int64, ok bool) {
	cv := pl.canon
	if cv == nil || cv.NumBlocks() != 1 || count < 1 {
		return 0, 0, false
	}
	if count > 1 && cv.BlockLen != pl.extent {
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
func (pl *Plan) Vector(count int) (CanonVec, bool) {
	cv := pl.canon
	if count < 0 || cv == nil || cv.Outer != 1 {
		return CanonVec{}, false
	}
	if count == 0 {
		return CanonVec{}, true
	}
	if off, n, ok := pl.Dense(count); ok {
		return CanonVec{Off: off, BlockLen: n, Inner: 1, InnerStride: n, Outer: 1, OuterStride: n}, true
	}
	v := *cv
	switch {
	case count == 1:
		return v, true
	case v.Inner == 1:
		v.InnerStride = pl.extent
	case pl.extent != v.InnerStride*v.Inner:
		return CanonVec{}, false
	}
	v.Inner *= int64(count)
	v.OuterStride = v.Inner * v.InnerStride
	return v, true
}

// NumBlocks returns the number of blocks in one element.
func (pl *Plan) NumBlocks() int {
	if cv := pl.canon; cv != nil {
		return int(cv.NumBlocks())
	}
	return len(pl.blocks)
}

// Block returns block i of the element: by arithmetic for a canonical
// layout, which has no list to read.
func (pl *Plan) Block(i int) Block {
	if cv := pl.canon; cv != nil {
		return Block{Off: cv.BlockOff(int64(i)), Len: cv.BlockLen}
	}
	return pl.blocks[i]
}

// locate maps a packed offset within one element (0 <= off <= element
// size) to (block index, bytes into that block). An offset landing
// exactly on a block boundary reports the start of the next block,
// matching the converter's wrap-on-completion state.
func (pl *Plan) locate(off int64) (bi int, bo int64) {
	if off == 0 {
		return 0, 0
	}
	if cv := pl.canon; cv != nil {
		return int(off / cv.BlockLen), off % cv.BlockLen
	}
	// First block whose cumulative end exceeds off, i.e. the block
	// containing byte off (boundary offsets select the next block).
	i := sort.Search(len(pl.blocks), func(i int) bool { return pl.prefix[i+1] > off })
	if i == len(pl.blocks) { // off == element size: wrapped to next rep
		return 0, 0
	}
	return i, off - pl.prefix[i]
}

// compilePlan builds the plan of d: its canonical form, or prefix sums
// over its list.
func compilePlan(d *Datatype) *Plan {
	pl := &Plan{extent: d.Extent(), canon: d.canon}
	if pl.canon == nil {
		pl.blocks = d.flat
		pl.prefix = make([]int64, len(d.flat)+1)
		for i, b := range d.flat {
			pl.prefix[i+1] = pl.prefix[i] + b.Len
		}
	}
	return pl
}

// detectCanon recognizes flattened layouts that are canonically strided
// with up to two nesting levels: the canonical form of a type built by
// an irregular constructor (Indexed, Struct, Darray) or of a composition
// too deep to be born canonical. It is O(B): one scan to verify equal
// lengths and find where the single-level stride breaks, and one scan
// to verify the two-level form.
func detectCanon(blocks []Block) *CanonVec {
	n := int64(len(blocks))
	if n == 0 {
		return nil
	}
	off0, bl := blocks[0].Off, blocks[0].Len
	if n == 1 {
		return &CanonVec{Off: off0, BlockLen: bl, Inner: 1, InnerStride: bl, Outer: 1, OuterStride: bl}
	}
	s1 := blocks[1].Off - off0
	// Scan for the first block off the single-level pattern.
	p := n
	for i := int64(0); i < n; i++ {
		if blocks[i].Len != bl {
			return nil
		}
		if p == n && blocks[i].Off != off0+i*s1 {
			p = i
		}
	}
	if p == n {
		return &CanonVec{Off: off0, BlockLen: bl, Inner: n, InnerStride: s1, Outer: 1, OuterStride: n * s1}
	}
	// Two-level candidate: runs of p blocks at stride s1, run starts at
	// stride s2.
	if p < 2 || n%p != 0 {
		return nil
	}
	s2 := blocks[p].Off - off0
	for i := int64(0); i < n; i++ {
		if blocks[i].Off != off0+(i/p)*s2+(i%p)*s1 {
			return nil
		}
	}
	return &CanonVec{Off: off0, BlockLen: bl, Inner: p, InnerStride: s1, Outer: n / p, OuterStride: s2}
}

// Plan returns the element's compiled plan, building it on first use.
// Safe for concurrent use: datatypes (including the shared primitives)
// may be walked from independent worlds running on separate goroutines.
func (d *Datatype) Plan() *Plan {
	d.planOnce.Do(func() { d.planVal = compilePlan(d) })
	return d.planVal
}
