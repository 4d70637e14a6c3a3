package mpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// randDt builds a random non-overlapping datatype suitable for
// transfers (moderate size, positive displacements).
func randDt(r *rand.Rand) *datatype.Datatype {
	switch r.Intn(6) {
	case 0:
		return datatype.Contiguous(r.Intn(30000)+1000, datatype.Float64)
	case 1:
		cols := r.Intn(60) + 4
		rows := r.Intn(60) + 4
		return shapes.SubMatrix(rows, cols, rows+r.Intn(20))
	case 2:
		return shapes.LowerTriangular(r.Intn(150) + 16)
	case 3:
		n := r.Intn(40) + 4
		bls := make([]int, n)
		displs := make([]int, n)
		pos := 0
		for i := 0; i < n; i++ {
			pos += r.Intn(50)
			displs[i] = pos
			bls[i] = r.Intn(300) + 1
			pos += bls[i]
		}
		return datatype.Indexed(bls, displs, datatype.Float64)
	case 4:
		sz := r.Intn(20) + 8
		sub := r.Intn(sz-2) + 2
		start := r.Intn(sz - sub + 1)
		return datatype.Subarray([]int{sz, sz}, []int{sub, sub}, []int{start, start},
			datatype.OrderFortran, datatype.Float64)
	default:
		return shapes.Transpose(r.Intn(24) + 8)
	}
}

// TestQuickRandomTransfers fuzzes the whole stack: random datatypes,
// random placements (same GPU / two GPUs / two nodes / host memory),
// random protocol tuning — every transfer must be byte-exact.
func TestQuickRandomTransfers(t *testing.T) {
	cfgCount := 60
	if testing.Short() {
		cfgCount = 15
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dt := randDt(r)
		count := r.Intn(2) + 1
		if count > 1 && dt.TrueLB()+dt.TrueExtent() > dt.Extent() {
			count = 1 // avoid overlapping repetitions for sticking-out types
		}

		placements := [][]Placement{
			{{Node: 0, GPU: 0}, {Node: 0, GPU: 0}},
			{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
			{{Node: 0, GPU: 0}, {Node: 1, GPU: 0}},
		}[r.Intn(3)]

		tun := &Tuning{}
		switch r.Intn(3) {
		case 0:
			tun.FragBytes = int64(r.Intn(1<<19) + 4096)
		case 1:
			tun.Eager = Eager(int64(r.Intn(1 << 18)))
			tun.DirectRemoteUnpack = r.Intn(2) == 0
		}

		sGPU := r.Intn(2) == 0
		rGPU := r.Intn(2) == 0

		w := NewWorld(Config{Ranks: placements, Tuning: tun})
		var sbuf, rbuf mem.Buffer
		w.Run(func(m *Rank) {
			span := dt.Span(count)
			alloc := func(gpu bool) mem.Buffer {
				if gpu {
					return m.Malloc(span)
				}
				return m.MallocHost(span)
			}
			if m.Rank() == 0 {
				sbuf = alloc(sGPU)
				mem.FillPattern(sbuf, uint64(seed))
				m.Barrier()
				m.Send(sbuf, dt, count, 1, 9)
			} else {
				rbuf = alloc(rGPU)
				m.Barrier()
				m.Recv(rbuf, dt, count, 0, 9)
			}
		})
		want := cpuPack(dt, count, sbuf.Bytes())
		got := cpuPack(dt, count, rbuf.Bytes())
		if !bytes.Equal(want, got) {
			rt := w.Tuning()
			t.Logf("seed %d: dt=%s count=%d placements=%v sGPU=%v rGPU=%v eager=%d tuning=%+v",
				seed, dt.Name(), count, placements, sGPU, rGPU, *rt.Eager, rt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: cfgCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomReshapes fuzzes asymmetric transfers: the sender's
// datatype differs from the receiver's but the signatures match.
func TestQuickRandomReshapes(t *testing.T) {
	cfgCount := 40
	if testing.Short() {
		cfgCount = 10
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sdt := randDt(r)
		elems := sdt.Size() / 8
		// Receiver sees the same doubles either contiguously or as a
		// vector with a compatible element count.
		var rdt *datatype.Datatype
		if r.Intn(2) == 0 || elems%2 != 0 {
			rdt = datatype.Contiguous(int(elems), datatype.Float64)
		} else {
			rdt = datatype.Vector(int(elems)/2, 2, 2+r.Intn(3), datatype.Float64)
		}
		w := NewWorld(Config{Ranks: []Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}}})
		var sbuf, rbuf mem.Buffer
		w.Run(func(m *Rank) {
			if m.Rank() == 0 {
				sbuf = m.Malloc(sdt.Span(1))
				mem.FillPattern(sbuf, uint64(seed)+3)
				m.Barrier()
				m.Send(sbuf, sdt, 1, 1, 0)
			} else {
				rbuf = m.Malloc(rdt.Span(1))
				m.Barrier()
				m.Recv(rbuf, rdt, 1, 0, 0)
			}
		})
		if !bytes.Equal(cpuPack(sdt, 1, sbuf.Bytes()), cpuPack(rdt, 1, rbuf.Bytes())) {
			t.Logf("seed %d: %s -> %s", seed, sdt.Name(), rdt.Name())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: cfgCount}); err != nil {
		t.Fatal(err)
	}
}
