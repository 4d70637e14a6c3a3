package mpi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestIcollCompletesAndCounts pins the request lifecycle: not done at
// call time (the schedule has not run), done after Wait, and the
// progress-engine counter back to zero at the quiescent point.
func TestIcollCompletesAndCounts(t *testing.T) {
	dt := shapes.SubMatrix(16, 16, 24)
	w := NewWorld(blockedConfig(1, 4, false))
	size := w.Size()
	stride := int64(2) * dt.Extent()
	var doneEarly, outstandingWrong bool
	imgs := make([][]byte, size)
	w.Run(func(m *Rank) {
		buf := m.Malloc(dt.Span(2 * size))
		mem.FillPattern(buf.Slice(int64(m.Rank())*stride, dt.Span(2)), uint64(300+m.Rank()))
		req := m.Iallgather(buf, dt, 2)
		if req.Done() {
			doneEarly = true
		}
		if m.collOut != 1 {
			outstandingWrong = true
		}
		req.Wait(m.Proc())
		if !req.Done() || m.collOut != 0 {
			outstandingWrong = true
		}
		imgs[m.Rank()] = cpuPack(dt, 2*size, buf.Bytes())
	})
	checkQuiescent(t, w, "iallgather")
	w.Close()
	if doneEarly {
		t.Error("request done before the schedule could have run")
	}
	if outstandingWrong {
		t.Error("collOut did not track the request lifecycle")
	}
	for r := 1; r < size; r++ {
		if !bytes.Equal(imgs[r], imgs[0]) {
			t.Fatalf("rank %d Iallgather result differs from rank 0", r)
		}
	}
}

// TestIcollConcurrentInFlight launches four different collectives
// before waiting on any of them — on a flat and on a hierarchical
// world — and checks every result against its blocking equivalent.
func TestIcollConcurrentInFlight(t *testing.T) {
	dt := shapes.SubMatrix(8, 8, 12)
	rdt := datatype.Contiguous(512, datatype.Int64)
	for _, sh := range []struct{ nodes, rpn int }{{1, 4}, {2, 2}, {3, 2}} {
		size := sh.nodes * sh.rpn
		sc := irregularCounts(size)
		rc := transposeCounts(sc)
		bImgs := make([][]byte, size)   // bcast results
		vImgs := make([][][]byte, size) // alltoallv results
		sums := make([]int64, size)
		w := NewWorld(blockedConfig(sh.nodes, sh.rpn, false))
		w.Run(func(m *Rank) {
			me := m.Rank()
			bbuf := m.Malloc(dt.Span(3))
			if me == 0 {
				mem.FillPattern(bbuf, 91)
			}
			send := m.MallocHost(rdt.Size())
			recv := m.MallocHost(rdt.Size())
			for i := 0; i < 512; i++ {
				binary64Put(send, i, int64(me+1))
			}
			sd, sspan := packedDispls(dt, sc[me])
			rd, rspan := packedDispls(dt, rc[me])
			vs, vr := m.Malloc(sspan), m.Malloc(rspan)
			for j := 0; j < size; j++ {
				if sc[me][j] > 0 {
					mem.FillPattern(vslot(vs, dt, sc[me][j], sd[j]), uint64(5000+me*size+j))
				}
			}

			r1 := m.Ibcast(bbuf, dt, 3, 0)
			r2 := m.Iallreduce(send, recv, rdt, 1, OpSum)
			r3 := m.Ialltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt)
			r4 := m.Ibarrier()
			m.WaitAll(r1, r2, r3, r4)

			bImgs[me] = cpuPack(dt, 3, bbuf.Bytes())
			sums[me] = binary64Get(recv, 17)
			vImgs[me] = make([][]byte, size)
			for j := 0; j < size; j++ {
				if rc[me][j] > 0 {
					vImgs[me][j] = cpuPack(dt, rc[me][j], vslot(vr, dt, rc[me][j], rd[j]).Bytes())
				}
			}
		})
		checkQuiescent(t, w, fmt.Sprintf("icoll concurrent %dx%d", sh.nodes, sh.rpn))
		w.Close()

		wantSum := int64(size * (size + 1) / 2)
		for r := 0; r < size; r++ {
			if !bytes.Equal(bImgs[r], bImgs[0]) {
				t.Fatalf("%dx%d: rank %d Ibcast result differs", sh.nodes, sh.rpn, r)
			}
			if sums[r] != wantSum {
				t.Fatalf("%dx%d: rank %d Iallreduce sum = %d, want %d", sh.nodes, sh.rpn, r, sums[r], wantSum)
			}
		}
		// Cross-check the alltoallv payloads against a blocking run.
		blocking := make([][][]byte, size)
		w2 := NewWorld(blockedConfig(sh.nodes, sh.rpn, false))
		w2.Run(func(m *Rank) {
			me := m.Rank()
			sd, sspan := packedDispls(dt, sc[me])
			rd, rspan := packedDispls(dt, rc[me])
			vs, vr := m.Malloc(sspan), m.Malloc(rspan)
			for j := 0; j < size; j++ {
				if sc[me][j] > 0 {
					mem.FillPattern(vslot(vs, dt, sc[me][j], sd[j]), uint64(5000+me*size+j))
				}
			}
			m.Alltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt)
			blocking[me] = make([][]byte, size)
			for j := 0; j < size; j++ {
				if rc[me][j] > 0 {
					blocking[me][j] = cpuPack(dt, rc[me][j], vslot(vr, dt, rc[me][j], rd[j]).Bytes())
				}
			}
		})
		w2.Close()
		for i := 0; i < size; i++ {
			for j := 0; j < size; j++ {
				if !bytes.Equal(vImgs[i][j], blocking[i][j]) {
					t.Fatalf("%dx%d: rank %d block %d: Ialltoallv differs from Alltoallv", sh.nodes, sh.rpn, i, j)
				}
			}
		}
	}
}

func binary64Put(b mem.Buffer, i int, v int64) {
	bs := b.Bytes()
	for k := 0; k < 8; k++ {
		bs[i*8+k] = byte(uint64(v) >> (8 * k))
	}
}

func binary64Get(b mem.Buffer, i int) int64 {
	bs := b.Bytes()
	var u uint64
	for k := 0; k < 8; k++ {
		u |= uint64(bs[i*8+k]) << (8 * k)
	}
	return int64(u)
}

// TestIcollOverlapsKernel drives the headline scenario: an Iallgatherv
// in flight while the rank's GPU runs compute kernels, then Wait. The
// result must be exactly the blocking result, and the kernels must not
// have serialized behind the collective (the overlapped run must be
// cheaper than collective-then-kernels would be).
func TestIcollOverlapsKernel(t *testing.T) {
	dt := shapes.SubMatrix(64, 64, 96)
	counts := []int{3, 5}
	displs, span := packedDispls(dt, counts)
	const kernels = 4
	const kernelBytes = 8 << 20

	run := func(overlap bool) (imgs [][]byte, elapsed int64) {
		w := NewWorld(blockedConfig(2, 1, false)) // two nodes, IB tier
		size := w.Size()
		imgs = make([][]byte, size)
		w.Run(func(m *Rank) {
			me := m.Rank()
			buf := m.Malloc(span)
			mem.FillPattern(vslot(buf, dt, counts[me], displs[me]), uint64(40+me))
			dev := m.Ctx().Node().GPU(m.place.GPU)
			if overlap {
				req := m.Iallgatherv(buf, counts, displs, dt)
				for k := 0; k < kernels; k++ {
					dev.Compute(m.Engine().Stream(), kernelBytes, 0).Await(m.Proc())
				}
				req.Wait(m.Proc())
			} else {
				m.Allgatherv(buf, counts, displs, dt)
				for k := 0; k < kernels; k++ {
					dev.Compute(m.Engine().Stream(), kernelBytes, 0).Await(m.Proc())
				}
			}
			imgs[me] = make([]byte, 0)
			for r := 0; r < size; r++ {
				imgs[me] = append(imgs[me], cpuPack(dt, counts[r], vslot(buf, dt, counts[r], displs[r]).Bytes())...)
			}
		})
		checkQuiescent(t, w, "iallgatherv overlap")
		end := int64(w.Engine().Now())
		w.Close()
		return imgs, end
	}

	oImgs, oTime := run(true)
	bImgs, bTime := run(false)
	for r := range oImgs {
		if !bytes.Equal(oImgs[r], bImgs[r]) {
			t.Fatalf("rank %d: overlapped Iallgatherv result differs from blocking", r)
		}
	}
	if oTime >= bTime {
		t.Fatalf("overlapped run (%d) not faster than blocking run (%d): no overlap happened", oTime, bTime)
	}
}

// TestIcollWaitallRace runs worlds with several in-flight collectives
// on parallel goroutines so `go test -race` can see any shared state
// touched by the progress engine.
func TestIcollWaitallRace(t *testing.T) {
	dt := shapes.SubMatrix(8, 8, 12)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := []struct{ nodes, rpn int }{{1, 4}, {2, 2}}[i%2]
			size := sh.nodes * sh.rpn
			sc := irregularCounts(size)
			rc := transposeCounts(sc)
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, i%3 == 0))
			ok := make([]bool, size)
			w.Run(func(m *Rank) {
				me := m.Rank()
				sd, sspan := packedDispls(dt, sc[me])
				rd, rspan := packedDispls(dt, rc[me])
				vs, vr := m.Malloc(sspan), m.Malloc(rspan)
				sent := make([][]byte, size)
				for j := 0; j < size; j++ {
					if sc[me][j] > 0 {
						blk := vslot(vs, dt, sc[me][j], sd[j])
						mem.FillPattern(blk, uint64(i*1000+me*size+j))
						sent[j] = cpuPack(dt, sc[me][j], blk.Bytes())
					}
				}
				reqs := []*Request{
					m.Ialltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt),
					m.Ibarrier(),
				}
				m.WaitAll(reqs...)
				ok[me] = m.collOut == 0
			})
			w.Close()
			for r := 0; r < size; r++ {
				if !ok[r] {
					errs <- fmt.Sprintf("worker %d rank %d: outstanding collectives after Waitall", i, r)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
