package conformance

import (
	"math/rand"

	"gpuddt/internal/datatype"
)

// TreeOptions bound a generated datatype tree so the harness stays fast
// no matter what the seed (or the fuzzer) asks for.
type TreeOptions struct {
	// MaxElems caps the number of primitive instances in one element.
	MaxElems int64
	// MaxSpan caps the data span in bytes of one element.
	MaxSpan int64
	// MaxDepth caps the nesting depth.
	MaxDepth int
}

// DefaultTreeOptions keeps one element under a few thousand primitives
// and a quarter megabyte of span — large enough to exercise multi-block
// DEV splits and MVAPICH segment explosions, small enough for hundreds
// of trees per test run.
func DefaultTreeOptions() TreeOptions {
	return TreeOptions{MaxElems: 2048, MaxSpan: 256 << 10, MaxDepth: 4}
}

// GenSpecOpts derives a random datatype tree from seed under the given
// bounds; a zero bound is the default's. Equal seeds produce equal
// trees.
func GenSpecOpts(seed uint64, opt TreeOptions) Spec {
	if opt.MaxElems <= 0 {
		opt.MaxElems = DefaultTreeOptions().MaxElems
	}
	if opt.MaxSpan <= 0 {
		opt.MaxSpan = DefaultTreeOptions().MaxSpan
	}
	if opt.MaxDepth <= 0 {
		opt.MaxDepth = DefaultTreeOptions().MaxDepth
	}
	g := &gen{rng: rand.New(rand.NewSource(int64(seed)))}
	return g.node(opt.MaxDepth, opt.MaxElems, opt.MaxSpan)
}

type gen struct {
	rng *rand.Rand
}

func (g *gen) intn(n int) int { return g.rng.Intn(n) }

// pick returns 1 + a geometric-ish value in [1, max].
func (g *gen) count(max int) int {
	if max <= 1 {
		return 1
	}
	return 1 + g.intn(max)
}

// dataBounds walks one element and returns the [lo, hi) byte range its
// data occupies; empty reports a zero-size layout.
func dataBounds(s Spec) (lo, hi int64, empty bool) {
	first := true
	s.Walk(0, func(memOff, n int64) {
		if first || memOff < lo {
			lo = memOff
		}
		if e := memOff + n; first || e > hi {
			hi = e
		}
		first = false
	})
	return lo, hi, first
}

// node generates a tree of at most the given depth whose element stays
// within the elems/span budgets.
func (g *gen) node(depth int, elems, span int64) Spec {
	if depth <= 1 || elems <= 2 || span <= 64 {
		return g.leaf()
	}
	switch g.intn(10) {
	case 0:
		return g.contig(depth, elems, span)
	case 1, 2:
		return g.vector(depth, elems, span, false)
	case 3:
		return g.vector(depth, elems, span, true)
	case 4, 5:
		return g.indexed(depth, elems, span)
	case 6:
		return g.strct(depth, elems, span)
	case 7:
		return g.subarray(depth, elems, span)
	case 8:
		return g.resized(depth, elems, span)
	default:
		return g.darray(depth, elems, span)
	}
}

func (g *gen) leaf() Spec {
	p := primSpec{which: g.intn(len(prims))}
	if g.intn(3) == 0 {
		return contigSpec{count: g.count(4), base: p}
	}
	return p
}

func (g *gen) contig(depth int, elems, span int64) Spec {
	c := g.count(4)
	base := g.node(depth-1, elems/int64(c), span/int64(c))
	return contigSpec{count: c, base: base}
}

func (g *gen) vector(depth int, elems, span int64, byBytes bool) Spec {
	c := g.count(6)
	bl := g.count(3)
	base := g.node(depth-1, elems/int64(c*bl), span/int64(c*bl))
	ext := extentOf(base)
	if ext <= 0 {
		ext = 1
	}
	blockSpan := int64(bl) * ext
	if byBytes {
		// Byte stride: at least the block span (no overlap), plus an
		// arbitrary, possibly odd, gap to stress alignment handling.
		stride := blockSpan + int64(g.intn(33))
		if g.intn(8) == 0 && blockSpan > 1 {
			// Occasionally overlap the blocks (pack-only legal).
			stride = 1 + int64(g.intn(int(blockSpan)))
		}
		return vectorSpec{count: c, blocklen: bl, strideB: stride, byBytes: true, base: base}
	}
	// Element stride, in units of the base extent.
	stride := bl + g.intn(3)
	return vectorSpec{count: c, blocklen: bl, strideElems: stride, base: base}
}

func (g *gen) indexed(depth int, elems, span int64) Spec {
	nb := g.count(6)
	byBytes := g.intn(3) == 0
	uniform := !byBytes && g.intn(3) == 0
	base := g.node(depth-1, elems/int64(2*nb), span/int64(2*nb))
	ext := extentOf(base)
	if ext <= 0 {
		ext = 1
	}
	_, hi, empty := dataBounds(base)
	if empty {
		hi = 1
	}

	blocklens := make([]int, nb)
	displs := make([]int64, nb)
	ubl := g.count(2) // shared blocklen for the IndexedBlock variant
	var cursor int64  // element index (indexed) or byte offset (hindexed)
	for i := range blocklens {
		bl := g.count(3)
		if uniform {
			bl = ubl
		} else if g.intn(10) == 0 {
			bl = 0 // empty blocks are legal and a known engine edge case
		}
		blocklens[i] = bl
		if byBytes {
			displs[i] = cursor
			// Advance past the block's data plus an odd gap.
			if bl > 0 {
				cursor = displs[i] + int64(bl-1)*ext + hi
			}
			cursor += int64(g.intn(19))
		} else {
			displs[i] = cursor
			cursor += int64(bl) + int64(g.intn(4))
		}
	}
	// Shuffle so the packed traversal visits memory out of order.
	g.rng.Shuffle(nb, func(i, j int) {
		blocklens[i], blocklens[j] = blocklens[j], blocklens[i]
		displs[i], displs[j] = displs[j], displs[i]
	})
	return indexedSpec{blocklens: blocklens, displs: displs, byBytes: byBytes, uniform: uniform, base: base}
}

func (g *gen) strct(depth int, elems, span int64) Spec {
	n := g.count(4)
	blocklens := make([]int, n)
	displs := make([]int64, n)
	types := make([]Spec, n)
	var cursor int64
	for i := 0; i < n; i++ {
		types[i] = g.node(depth-1, elems/int64(2*n), span/int64(2*n))
		bl := 1
		ext := extentOf(types[i])
		_, hi, empty := dataBounds(types[i])
		if empty {
			hi = 0
		}
		if ext >= hi && ext > 0 && g.intn(2) == 0 {
			bl = g.count(2) // repetitions tile without overlapping
		}
		blocklens[i] = bl
		displs[i] = cursor + int64(g.intn(13))
		cursor = displs[i] + int64(bl-1)*ext + hi
	}
	return structSpec{blocklens: blocklens, displs: displs, types: types}
}

func (g *gen) subarray(depth int, elems, span int64) Spec {
	nd := 1 + g.intn(3)
	sizes := make([]int, nd)
	subsizes := make([]int, nd)
	starts := make([]int, nd)
	total := int64(1)
	for d := 0; d < nd; d++ {
		sizes[d] = 1 + g.intn(6)
		subsizes[d] = 1 + g.intn(sizes[d])
		starts[d] = g.intn(sizes[d] - subsizes[d] + 1)
		total *= int64(sizes[d])
	}
	base := g.node(depth-1, elems/total, span/total)
	order := datatype.OrderC
	if g.intn(2) == 0 {
		order = datatype.OrderFortran
	}
	return subarraySpec{sizes: sizes, subsizes: subsizes, starts: starts, order: order, base: base}
}

func (g *gen) resized(depth int, elems, span int64) Spec {
	base := g.node(depth-1, elems, span)
	_, hi, empty := dataBounds(base)
	if empty {
		hi = 1
	}
	lb := int64(g.intn(9))
	extent := hi + int64(g.intn(17))
	if g.intn(4) == 0 && hi > 1 {
		// Shrink the extent below the data span: consecutive elements
		// interleave (pack-only legal, defeats contiguity detection).
		extent = 1 + int64(g.intn(int(hi)))
	}
	return resizedSpec{base: base, lb: lb, extent: extent}
}

func (g *gen) darray(depth int, elems, span int64) Spec {
	nd := 1 + g.intn(2)
	psizes := make([]int, nd)
	size := 1
	for d := 0; d < nd; d++ {
		psizes[d] = 1 + g.intn(2)
		size *= psizes[d]
	}
	gsizes := make([]int, nd)
	distribs := make([]datatype.Distrib, nd)
	dargs := make([]int, nd)
	total := int64(1)
	for d := 0; d < nd; d++ {
		gsizes[d] = 2 + g.intn(7)
		total *= int64(gsizes[d])
		switch g.intn(3) {
		case 0:
			if psizes[d] == 1 {
				distribs[d] = datatype.DistribNone
				dargs[d] = datatype.DargDefault
				continue
			}
			fallthrough
		case 1:
			distribs[d] = datatype.DistribBlock
			if g.intn(2) == 0 {
				dargs[d] = datatype.DargDefault
			} else {
				dargs[d] = (gsizes[d]+psizes[d]-1)/psizes[d] + g.intn(2)
			}
		default:
			distribs[d] = datatype.DistribCyclic
			if g.intn(2) == 0 {
				dargs[d] = datatype.DargDefault
			} else {
				dargs[d] = 1 + g.intn(3)
			}
		}
	}
	base := g.node(depth-1, elems/total, span/total)
	order := datatype.OrderC
	if g.intn(2) == 0 {
		order = datatype.OrderFortran
	}
	return darraySpec{
		size: size, rank: g.intn(size),
		gsizes: gsizes, distribs: distribs, dargs: dargs, psizes: psizes,
		order: order, base: base,
	}
}
