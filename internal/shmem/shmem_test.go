package shmem

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

func twoPEs() Config {
	return Config{Ranks: []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}}, HeapBytes: testHeapBytes}
}
func fourPEs() Config {
	return Config{Ranks: []mpi.Placement{
		{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0}, {Node: 1, GPU: 1},
	}, HeapBytes: testHeapBytes}
}

func TestSymmetricAddressesMatch(t *testing.T) {
	offs := make([][]int64, 4)
	Run(fourPEs(), func(pe *PE) {
		a := pe.Malloc(1000)
		b := pe.Malloc(4096)
		offs[pe.Rank()] = []int64{a.Off, b.Off}
	})
	for r := 1; r < 4; r++ {
		if offs[r][0] != offs[0][0] || offs[r][1] != offs[0][1] {
			t.Fatalf("asymmetric heap: %v vs %v", offs[r], offs[0])
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	const n = 500000 // large enough for rendezvous
	ok := true
	Run(twoPEs(), func(pe *PE) {
		sym := pe.Malloc(n)
		if pe.Rank() == 0 {
			src := pe.Underlying().Malloc(n)
			mem.FillPattern(src, 9)
			pe.Put(sym, src, 1)
			pe.BarrierAll()
			// Read it back from PE 1.
			back := pe.Underlying().Malloc(n)
			pe.Get(back, sym, 1)
			if !mem.Equal(src, back) {
				ok = false
			}
			pe.BarrierAll()
		} else {
			pe.BarrierAll()
			pe.BarrierAll()
		}
	})
	if !ok {
		t.Fatal("put/get round trip corrupted data")
	}
}

func TestIPutStrided(t *testing.T) {
	// PE 0 puts a strided sub-matrix into PE 1's symmetric triangular
	// layout... simpler: vector -> vector with matching signatures.
	nrow, ncol, ld := 96, 64, 128
	vec := shapes.SubMatrix(nrow, ncol, ld)
	contigDT := datatype.Contiguous(nrow*ncol, datatype.Float64)
	var want, got []byte
	Run(twoPEs(), func(pe *PE) {
		span := int64(ld*ncol) * 8
		sym := pe.Malloc(span)
		if pe.Rank() == 0 {
			local := pe.Underlying().Malloc(span)
			mem.FillPattern(local, 33)
			want = datatype.PackImage(vec, 1, local.Bytes())
			// Strided local data lands contiguously at the target.
			pe.IPut(sym, contigDT, 1, local, vec, 1, 1)
			pe.BarrierAll()
		} else {
			pe.BarrierAll()
			got = append([]byte(nil), pe.Local(sym).Slice(0, vec.Size()).Bytes()...)
		}
	})
	if !bytes.Equal(want, got) {
		t.Fatal("strided IPut mismatch")
	}
}

func TestIGetScatter(t *testing.T) {
	// PE 0 gets PE 1's contiguous data scattered into its own strided
	// layout.
	nrow, ncol, ld := 64, 48, 80
	vec := shapes.SubMatrix(nrow, ncol, ld)
	contigDT := datatype.Contiguous(nrow*ncol, datatype.Float64)
	var want, got []byte
	Run(twoPEs(), func(pe *PE) {
		sym := pe.Malloc(vec.Size())
		if pe.Rank() == 1 {
			mem.FillPattern(pe.Local(sym), 44)
			want = append([]byte(nil), pe.Local(sym).Bytes()...)
		}
		pe.BarrierAll()
		if pe.Rank() == 0 {
			span := int64(ld*ncol) * 8
			local := pe.Underlying().Malloc(span)
			pe.IGet(local, vec, 1, sym, contigDT, 1, 1)
			got = datatype.PackImage(vec, 1, local.Bytes())
		}
		pe.BarrierAll()
	})
	if !bytes.Equal(want, got) {
		t.Fatal("IGet scatter mismatch")
	}
}

func TestPutNBIAndQuiet(t *testing.T) {
	const n = 300000
	var imgs [3][]byte
	Run(fourPEs(), func(pe *PE) {
		sym := pe.Malloc(n)
		if pe.Rank() == 0 {
			for target := 1; target < 4; target++ {
				src := pe.Underlying().Malloc(n)
				mem.FillPattern(src, uint64(target))
				pe.PutNBI(sym, src, target)
			}
			pe.Quiet()
		}
		pe.BarrierAll()
		if pe.Rank() != 0 {
			imgs[pe.Rank()-1] = append([]byte(nil), pe.Local(sym).Bytes()...)
		}
	})
	ref := mem.NewSpace("ref", mem.Host, n)
	rb := ref.Alloc(n, 1)
	for target := 1; target < 4; target++ {
		mem.FillPattern(rb, uint64(target))
		if !bytes.Equal(imgs[target-1], rb.Bytes()) {
			t.Fatalf("PE %d data wrong after quiet", target)
		}
	}
}

func TestHostHeap(t *testing.T) {
	cfg := twoPEs()
	cfg.HeapOnHost = true
	ok := true
	Run(cfg, func(pe *PE) {
		sym := pe.Malloc(100000)
		if pe.Rank() == 0 {
			src := pe.Underlying().MallocHost(100000)
			mem.FillPattern(src, 5)
			pe.Put(sym, src, 1)
			pe.BarrierAll()
		} else {
			pe.BarrierAll()
			ref := pe.Underlying().MallocHost(100000)
			mem.FillPattern(ref, 5)
			if !mem.Equal(ref, pe.Local(sym)) {
				ok = false
			}
		}
	})
	if !ok {
		t.Fatal("host-heap put failed")
	}
}
