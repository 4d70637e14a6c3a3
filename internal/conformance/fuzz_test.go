package conformance

import (
	"testing"
)

// fuzzTree builds a conformance case from fuzzer-chosen inputs under
// tighter bounds than the seeded sweep, so each execution stays cheap
// while the fuzzer explores the generator's space.
func fuzzTree(seed uint64, countSel uint16) *Tree {
	opt := TreeOptions{MaxElems: 512, MaxSpan: 64 << 10, MaxDepth: 4}
	sp := GenSpecOpts(seed, opt)
	count := 1 + int(countSel%4)
	if i := seed - runSeed0; seed >= runSeed0 && i < uint64(len(runSpecs)) {
		sp, count = runSpecs[i].sp, runSpecs[i].count+int(countSel%4)
	}
	return &Tree{
		Seed:  seed,
		Spec:  sp,
		Dt:    sp.Build().Commit(),
		Count: count,
		Map:   ReferenceMap(sp, count),
		Span:  Span(sp, count),
	}
}

// Seeds from runSeed0 up select, instead of a generated tree, one of the
// layouts the converter copies by run: dense ones it moves in one copy
// at counts the generator never reaches, ones whose pieces merge across
// element boundaries, and the paper's V and T where nothing merges.
const runSeed0 = 1 << 62

const (
	specByte    = 0 // indices into prims
	specInt64   = 3
	specFloat64 = 5
)

var runSpecs = []struct {
	sp    Spec
	count int
}{
	{primSpec{specByte}, 4093},               // (Byte, n)
	{contigSpec{5, primSpec{specInt64}}, 37}, // (Contiguous(k, Int64), n)
	{resizedSpec{vectorSpec{count: 3, blocklen: 2, strideElems: 4, base: primSpec{specFloat64}}, 0, 128}, 5},
	{vectorSpec{count: 7, blocklen: 5, strideElems: 9, base: primSpec{specFloat64}}, 3}, // SubMatrix(5, 7, 9)
	{lowerTriangularSpec(9), 3},
	// Blocks at 0, 16, 40, 56 of 8 bytes, extent 64: a two-level
	// canonical form whose last block touches the next element's first.
	{vectorSpec{count: 2, blocklen: 1, strideB: 40, byBytes: true,
		base: vectorSpec{count: 2, blocklen: 1, strideElems: 2, base: primSpec{specInt64}}}, 4},
}

// lowerTriangularSpec is shapes.LowerTriangular(n) as a Spec.
func lowerTriangularSpec(n int) Spec {
	sp := indexedSpec{base: primSpec{specFloat64}}
	for i := 0; i < n; i++ {
		sp.blocklens = append(sp.blocklens, n-i)
		sp.displs = append(sp.displs, int64(i*n+i))
	}
	return sp
}

// fuzzFrags derives a fragment-size schedule from one fuzzer word: two
// sizes, both at least 1 byte and at most 8 KiB, so the converter
// windows land on arbitrary boundaries.
func fuzzFrags(frag uint32) []int64 {
	a := int64(frag&0x1fff) + 1
	b := int64(frag>>13&0x1fff) + 1
	return []int64{a, b}
}

// FuzzPackUnpack drives the CPU datatype converter differentially
// against the naive reference walker: structure metadata, whole-message
// pack, fragmented pack under fuzzer-chosen fragment sizes, seek-resumed
// pack, and (for overlap-free layouts) the unpack identity.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint32(977))
	f.Add(uint64(7), uint16(1), uint32(0))
	f.Add(uint64(42), uint16(2), uint32(1<<13|4096))
	f.Add(uint64(300), uint16(3), uint32(0xffffffff))
	f.Add(uint64(123456789), uint16(0), uint32(1021))
	for i := range runSpecs {
		f.Add(uint64(runSeed0+i), uint16(i), uint32(i*5<<13|(97+i)))
	}
	f.Fuzz(func(t *testing.T, seed uint64, countSel uint16, frag uint32) {
		tr := fuzzTree(seed, countSel)
		if err := tr.CheckStructure(); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckCPU(fuzzFrags(frag)); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckMVAPICH(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDEVSplit drives the GPU DEV engine — unit splitting, descriptor
// caching, vector fast path and generic fallback — against the
// reference walker under fuzzer-chosen unit sizes and fragment
// schedules.
func FuzzDEVSplit(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(0), uint32(977))
	f.Add(uint64(7), uint16(1), uint8(3), uint32(4096))
	f.Add(uint64(42), uint16(2), uint8(16), uint32(1<<13|512))
	f.Add(uint64(300), uint16(3), uint8(129), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, seed uint64, countSel uint16, unitSel uint8, frag uint32) {
		tr := fuzzTree(seed, countSel)
		opts := gpuOpts(256 * (1 + int64(unitSel%16)))
		opts.DisableVectorKernel = unitSel >= 128
		if err := tr.CheckGPU(DriverD2D, opts, fuzzFrags(frag)); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckGPU(DriverZeroCopy, opts, fuzzFrags(frag)); err != nil {
			t.Fatal(err)
		}
	})
}
