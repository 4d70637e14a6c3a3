package datatype

// A type is born canonical when its constructor composes the base's
// CanonVec with its own repetition instead of flattening: Contiguous,
// Vector, Hvector, Subarray and Resized over a canonical base describe
// their layout as a nest of strided levels around one block length,
// normalize the nest exactly as merging the flattened list would, and
// keep the result when it is the two-level form detectCanon finds over
// that list. The list itself is then built only if something asks for
// it (Datatype.Blocks). A nest the two levels cannot hold is flattened
// and detected as before.

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

// tile completes d, a strided constructor over base: copies of base at
// off + Σ i_j × lv[j].stride for i_j in [0, lv[j].n), the innermost
// level first. Contiguous, Vector, Hvector and Subarray differ only in
// their levels. d is born canonical when the nest normalizes to a form,
// and otherwise flattens.
func (d *Datatype) tile(base *Datatype, off int64, lv []level) *Datatype {
	s := nestOf(base)
	s.off += off
	for _, l := range lv {
		s.repeat(l.n, l.stride)
	}
	if cv, ok := s.canon(); ok {
		return d.born(cv)
	}
	d.flat = flatten(nil, base, off, lv)
	return d.finish()
}

// flatten appends the copies of base that lv lays out from disp, in
// traversal order, merging as instantiate does. An innermost level of
// consecutive elements goes as one instantiateN.
func flatten(flat []Block, base *Datatype, disp int64, lv []level) []Block {
	k := len(lv) - 1
	switch {
	case k < 0:
		return instantiate(flat, base, disp)
	case k == 0 && lv[0].stride == base.Extent():
		return instantiateN(flat, base, disp, lv[0].n)
	}
	for j := range lv[k].n {
		flat = flatten(flat, base, disp+j*lv[k].stride, lv[:k])
	}
	return flat
}

// maxLevels bounds a nest: the base's two levels plus a constructor's
// own (a subarray adds one per dimension). A deeper nest is flattened.
const maxLevels = 8

// level is n repetitions, stride bytes apart, of what lies inside it.
type level struct{ n, stride int64 }

// nest is a layout under composition: blocks of bl bytes at off,
// repeated over lv[:k], innermost first. bl == 0 is a layout with no
// blocks; noForm marks a nest whose form cannot be composed: over an
// irregular base, or grown past maxLevels.
type nest struct {
	off, bl int64
	k       int
	lv      [maxLevels]level
	noForm  bool
}

// nestOf returns base's layout as a nest.
func nestOf(base *Datatype) nest {
	cv := base.canon
	if cv == nil {
		return nest{noForm: len(base.flat) > 0}
	}
	s := nest{off: cv.Off, bl: cv.BlockLen}
	s.repeat(cv.Inner, cv.InnerStride)
	s.repeat(cv.Outer, cv.OuterStride)
	return s
}

// repeat adds an outermost level of n copies of the nest, stride bytes
// apart. One copy adds nothing; none leaves no blocks.
func (s *nest) repeat(n, stride int64) {
	switch {
	case n == 1:
	case n == 0:
		s.bl = 0
	case s.k == maxLevels:
		s.noForm = true
	default:
		s.lv[s.k] = level{n, stride}
		s.k++
	}
}

// canon returns the nest's canonical form: what detectCanon returns for
// the merged flattening of the nest, nil for a layout of no blocks. ok
// is false when that form cannot be read off the nest — an irregular
// base, more than two levels, or blocks that abut across a level
// without the whole level merging — and the caller flattens instead.
//
// Normalization follows appendMerged. Blocks merge where one ends at the
// next one's start, so an innermost level whose stride is the block
// length folds into the block. A level whose stride is the span of the
// one inside it (n × stride) continues that level, so the two fuse.
// After both, the step into a new run of level j is its stride less the
// span the levels inside have walked; equal to the block length, it
// merges only the blocks at run boundaries, and the list is irregular.
func (s *nest) canon() (cv *CanonVec, ok bool) {
	if s.noForm {
		return nil, false
	}
	if s.bl == 0 {
		return nil, true
	}
	bl, i := s.bl, 0
	for ; i < s.k && s.lv[i].stride == bl; i++ {
		bl *= s.lv[i].n
	}
	var lv [maxLevels]level
	k := 0
	for _, l := range s.lv[i:s.k] {
		if k > 0 && l.stride == lv[k-1].n*lv[k-1].stride {
			lv[k-1].n *= l.n
			continue
		}
		lv[k] = l
		k++
	}
	var walked int64
	for j, l := range lv[:k] {
		if j > 0 && l.stride-walked == bl {
			return nil, false
		}
		walked += (l.n - 1) * l.stride
	}
	switch k {
	case 0:
		return &CanonVec{Off: s.off, BlockLen: bl, Inner: 1, InnerStride: bl, Outer: 1, OuterStride: bl}, true
	case 1:
		return &CanonVec{Off: s.off, BlockLen: bl, Inner: lv[0].n, InnerStride: lv[0].stride, Outer: 1, OuterStride: lv[0].n * lv[0].stride}, true
	case 2:
		return &CanonVec{Off: s.off, BlockLen: bl, Inner: lv[0].n, InnerStride: lv[0].stride, Outer: lv[1].n, OuterStride: lv[1].stride}, true
	}
	return nil, false
}

// trueBounds returns the first data byte of the layout and one past its
// last.
func (cv *CanonVec) trueBounds() (lo, hi int64) {
	lo, hi = cv.Off, cv.Off+cv.BlockLen
	for _, d := range [2]int64{(cv.Inner - 1) * cv.InnerStride, (cv.Outer - 1) * cv.OuterStride} {
		if d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	return lo, hi
}

// blocks expands the canonical form into its block list.
func (cv *CanonVec) blocks() []Block {
	out := make([]Block, 0, cv.NumBlocks())
	for o := int64(0); o < cv.Outer; o++ {
		for i := int64(0); i < cv.Inner; i++ {
			out = append(out, Block{Off: cv.Off + o*cv.OuterStride + i*cv.InnerStride, Len: cv.BlockLen})
		}
	}
	return out
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
