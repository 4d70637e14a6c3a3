package conformance

import (
	"math/rand"
	"slices"
	"testing"

	"gpuddt/internal/datatype"
)

// canonShapes are the layouts the strided constructors compose without
// flattening, each sized from the fuzzer's seed and built over g, a
// small generated tree. FuzzCanonicalForm's shape k > 0 selects
// canonShapes[k-1]; shape 0 is a generated tree alone.
var canonShapes = []func(r *rand.Rand, g Spec) Spec{
	// shapes.Transpose(n): n rows of a column-major matrix, resized so
	// consecutive rows interleave.
	func(r *rand.Rand, _ Spec) Spec {
		n := 1 + r.Intn(40)
		row := vectorSpec{count: n, blocklen: 1, strideElems: n, base: primSpec{specFloat64}}
		return contigSpec{n, resizedSpec{row, 0, 8}}
	},
	// shapes.HaloFace on a 2-D and a 3-D padded box.
	func(r *rand.Rand, _ Spec) Spec { return haloFaceSpec(r, 2) },
	func(r *rand.Rand, _ Spec) Spec { return haloFaceSpec(r, 3) },
	// Resized of Vector, repeated: the extent may fall below the data
	// span, so consecutive vectors interleave.
	func(r *rand.Rand, g Spec) Spec {
		v := vectorSpec{count: 1 + r.Intn(6), blocklen: 1 + r.Intn(3), strideElems: 1 + r.Intn(5), base: g}
		ext := 1 + int64(r.Intn(int(max(extentOf(v), 1))+16))
		return contigSpec{1 + r.Intn(5), resizedSpec{v, int64(r.Intn(9)), ext}}
	},
	// Zero counts, block lengths and subsizes.
	func(r *rand.Rand, g Spec) Spec {
		switch r.Intn(3) {
		case 0:
			return contigSpec{0, g}
		case 1:
			return vectorSpec{count: r.Intn(3), blocklen: r.Intn(2) * r.Intn(3), strideElems: 1 + r.Intn(3), base: g}
		}
		return subarraySpec{sizes: []int{3, 4}, subsizes: []int{r.Intn(2), 2}, starts: []int{1, 1}, base: g}
	},
	// Negative strides, by element and by byte.
	func(r *rand.Rand, g Spec) Spec {
		bl := 1 + r.Intn(3)
		if r.Intn(2) == 0 {
			return vectorSpec{count: 2 + r.Intn(5), blocklen: bl, strideElems: -bl - r.Intn(3), base: g}
		}
		return vectorSpec{count: 2 + r.Intn(5), blocklen: bl, strideB: -int64(bl)*extentOf(g) - int64(r.Intn(17)), byBytes: true, base: g}
	},
}

// haloFaceSpec is shapes.HaloFace over a random padded box of nd
// dimensions: the plane at a random index of a random dimension, full
// before it and interior after it.
func haloFaceSpec(r *rand.Rand, nd int) Spec {
	s := subarraySpec{sizes: make([]int, nd), subsizes: make([]int, nd), starts: make([]int, nd), base: primSpec{specFloat64}}
	dim := r.Intn(nd)
	for d := range s.sizes {
		s.sizes[d] = 3 + r.Intn(8)
		switch {
		case d == dim:
			s.subsizes[d], s.starts[d] = 1, r.Intn(s.sizes[d])
		case d < dim:
			s.subsizes[d] = s.sizes[d]
		default:
			s.subsizes[d], s.starts[d] = s.sizes[d]-2, 1
		}
	}
	return s
}

// canonTree returns the tree FuzzCanonicalForm checks for (seed, shape).
func canonTree(seed uint64, shape uint8) Spec {
	g := GenSpecOpts(seed, TreeOptions{MaxElems: 256, MaxSpan: 16 << 10, MaxDepth: 4})
	k := int(shape) % (len(canonShapes) + 1)
	if k == 0 {
		return g
	}
	return canonShapes[k-1](rand.New(rand.NewSource(int64(seed))), g)
}

// referenceBlocks is one element's list by the reference walker: its
// primitive runs in packed order, merged where one ends at the next
// one's start, as MPI's optimized description merges them.
func referenceBlocks(sp Spec) []datatype.Block {
	var out []datatype.Block
	sp.Walk(0, func(off, n int64) {
		if k := len(out); k > 0 && out[k-1].Off+out[k-1].Len == off {
			out[k-1].Len += n
			return
		}
		out = append(out, datatype.Block{Off: off, Len: n})
	})
	return out
}

// referenceSig is one element's signature from the spec tree: a
// primitive is one run, a struct its members in order, and every other
// constructor repeats its one base as often as its size holds it.
func referenceSig(sp Spec) []datatype.SigRun {
	var out []datatype.SigRun
	var add func(sp Spec, n int64)
	add = func(sp Spec, n int64) {
		for ; n > 0; n-- {
			var base Spec
			switch s := sp.(type) {
			case primSpec:
				pr := prims[s.which].dt.Signature()[0].Prim
				if k := len(out); k > 0 && out[k-1].Prim == pr {
					out[k-1].Count++
				} else {
					out = append(out, datatype.SigRun{Prim: pr, Count: 1})
				}
				continue
			case structSpec:
				for i, t := range s.types {
					add(t, int64(s.blocklens[i]))
				}
				continue
			case contigSpec:
				base = s.base
			case vectorSpec:
				base = s.base
			case indexedSpec:
				base = s.base
			case subarraySpec:
				base = s.base
			case resizedSpec:
				base = s.base
			case darraySpec:
				base = s.base
			}
			if base.Size() > 0 {
				add(base, sp.Size()/base.Size())
			}
		}
	}
	add(sp, 1)
	return out
}

// FuzzCanonicalForm checks the canonical form each constructor composes
// from its base's against the reference: the canonical detection over
// the reference walker's merged list, not over the engine's list, which
// a type born canonical rebuilds from its own form. The detection is
// Hindexed's over Byte blocks at the reference offsets, the path every
// irregular constructor takes. Size, extent, true bounds, block count
// and signature must match the reference too.
func FuzzCanonicalForm(f *testing.F) {
	for shape := range len(canonShapes) + 1 {
		for _, seed := range []uint64{1, 7, 42, 300, 123456789} {
			f.Add(seed, uint8(shape))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		sp := canonTree(seed, shape)
		dt := sp.Build()
		ref := referenceBlocks(sp)
		lens, offs := make([]int, len(ref)), make([]int64, len(ref))
		var size int64
		lo, hi := int64(0), int64(0)
		for i, b := range ref {
			lens[i], offs[i] = int(b.Len), b.Off
			size += b.Len
			if i == 0 || b.Off < lo {
				lo = b.Off
			}
			if i == 0 || b.Off+b.Len > hi {
				hi = b.Off + b.Len
			}
		}
		want := datatype.Hindexed(lens, offs, datatype.Byte).Canonical()
		switch got := dt.Canonical(); {
		case (got == nil) != (want == nil):
			t.Fatalf("%s: canonical form %+v, reference %+v", sp, got, want)
		case got != nil && *got != *want:
			t.Fatalf("%s: canonical form %+v, reference %+v", sp, *got, *want)
		}
		if dt.Size() != size || dt.Size() != sp.Size() {
			t.Fatalf("%s: size %d, reference list %d, spec %d", sp, dt.Size(), size, sp.Size())
		}
		if dt.Extent() != extentOf(sp) {
			t.Fatalf("%s: extent %d, reference %d", sp, dt.Extent(), extentOf(sp))
		}
		if dt.TrueLB() != lo || dt.TrueExtent() != hi-lo {
			t.Fatalf("%s: true bounds [%d,+%d), reference [%d,+%d)", sp, dt.TrueLB(), dt.TrueExtent(), lo, hi-lo)
		}
		if dt.NumBlocks() != len(ref) {
			t.Fatalf("%s: %d blocks, reference %d", sp, dt.NumBlocks(), len(ref))
		}
		if sig := referenceSig(sp); !slices.Equal(dt.Signature(), sig) {
			t.Fatalf("%s: signature %v, reference %v", sp, dt.Signature(), sig)
		}
	})
}
