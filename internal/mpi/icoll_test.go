package mpi

import (
	"bytes"
	"fmt"
	"strings"
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
		counts, displs := make([]int, size), make([]int, size)
		for r := range counts {
			counts[r], displs[r] = 2, 2*r
		}
		req := m.Iallgatherv(buf, counts, displs, dt)
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
	checkQuiescent(t, w, "iallgatherv")
	w.Close()
	if doneEarly {
		t.Error("request done before the schedule could have run")
	}
	if outstandingWrong {
		t.Error("collOut did not track the request lifecycle")
	}
	for r := 1; r < size; r++ {
		if !bytes.Equal(imgs[r], imgs[0]) {
			t.Fatalf("rank %d Iallgatherv result differs from rank 0", r)
		}
	}
}

// TestIcollConcurrentInFlight keeps an Iallgatherv in flight while the
// rank's main process runs the blocking Bcast, Allreduce, Alltoallv and
// Barrier — on a flat and on hierarchical worlds — so several schedules
// draw on the rank's collective tags at once, and checks every result
// against the same collective run on its own.
func TestIcollConcurrentInFlight(t *testing.T) {
	dt := shapes.SubMatrix(8, 8, 12)
	rdt := datatype.Contiguous(512, datatype.Int64)
	for _, sh := range []struct{ nodes, rpn int }{{1, 4}, {2, 2}, {3, 2}} {
		size := sh.nodes * sh.rpn
		gc := make([]int, size)
		for r := range gc {
			gc[r] = 40 * (r%3 + 1) // large enough to outlive the blocking collectives
		}
		gd, gspan := packedDispls(dt, gc)
		sc := irregularCounts(size)
		rc := transposeCounts(sc)
		type images struct {
			gather, bcast, sum, v []byte
			overlapped            bool // the Iallgatherv outlived the blocking collectives
		}
		// run executes on a fresh world the collectives ops names: 'g'
		// an Iallgatherv left in flight across the others and a Barrier,
		// 'G' the blocking Allgatherv, 'b' Bcast, 'r' Allreduce and 'v'
		// Alltoallv. It returns each rank's results.
		run := func(ops string) []images {
			has := func(op byte) bool { return strings.IndexByte(ops, op) >= 0 }
			out := make([]images, size)
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, false))
			w.Run(func(m *Rank) {
				me := m.Rank()
				o := &out[me]
				gbuf := m.Malloc(gspan)
				mem.FillPattern(vslot(gbuf, dt, gc[me], gd[me]), uint64(700+me))
				var req *Request
				if has('g') {
					req = m.Iallgatherv(gbuf, gc, gd, dt)
				}
				if has('G') {
					m.Allgatherv(gbuf, gc, gd, dt)
				}
				if has('b') {
					bbuf := m.Malloc(dt.Span(3))
					if me == 0 {
						mem.FillPattern(bbuf, 91)
					}
					m.Bcast(bbuf, dt, 3, 0)
					o.bcast = cpuPack(dt, 3, bbuf.Bytes())
				}
				if has('r') {
					send, recv := m.MallocHost(rdt.Size()), m.MallocHost(rdt.Size())
					for i := 0; i < 512; i++ {
						binary64Put(send, i, int64(me+1))
					}
					m.Allreduce(send, recv, rdt, 1, OpSum)
					o.sum = append([]byte(nil), recv.Bytes()...)
				}
				if has('v') {
					sd, sspan := packedDispls(dt, sc[me])
					rd, rspan := packedDispls(dt, rc[me])
					vs, vr := m.Malloc(sspan), m.Malloc(rspan)
					for j := 0; j < size; j++ {
						if sc[me][j] > 0 {
							mem.FillPattern(vslot(vs, dt, sc[me][j], sd[j]), uint64(5000+me*size+j))
						}
					}
					m.Alltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt)
					for j := 0; j < size; j++ {
						if rc[me][j] > 0 {
							o.v = append(o.v, cpuPack(dt, rc[me][j], vslot(vr, dt, rc[me][j], rd[j]).Bytes())...)
						}
					}
				}
				if req != nil {
					o.overlapped = !req.Done()
					m.Barrier()
					req.Wait(m.Proc())
				}
				for r := 0; r < size; r++ {
					o.gather = append(o.gather, cpuPack(dt, gc[r], vslot(gbuf, dt, gc[r], gd[r]).Bytes())...)
				}
			})
			checkQuiescent(t, w, fmt.Sprintf("icoll concurrent %dx%d %s", sh.nodes, sh.rpn, ops))
			w.Close()
			return out
		}

		all := run("gbrv")
		gather, bcast, sum, v := run("G"), run("b"), run("r"), run("v")
		wantSum := int64(size * (size + 1) / 2)
		for r := 0; r < size; r++ {
			for _, c := range []struct {
				name      string
				got, want []byte
			}{
				{"Iallgatherv", all[r].gather, gather[r].gather},
				{"Bcast", all[r].bcast, bcast[r].bcast},
				{"Allreduce", all[r].sum, sum[r].sum},
				{"Alltoallv", all[r].v, v[r].v},
			} {
				if !bytes.Equal(c.got, c.want) {
					t.Fatalf("%dx%d: rank %d %s result differs from its own run", sh.nodes, sh.rpn, r, c.name)
				}
			}
			if !all[r].overlapped {
				t.Fatalf("%dx%d: rank %d Iallgatherv finished before the blocking collectives did", sh.nodes, sh.rpn, r)
			}
			if got := binary64Get(sum[r].sum, 17); got != wantSum {
				t.Fatalf("%dx%d: rank %d Allreduce sum = %d, want %d", sh.nodes, sh.rpn, r, got, wantSum)
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

func binary64Get(bs []byte, i int) int64 {
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

// TestIcollWaitallRace runs worlds with two Iallgatherv in flight
// across a blocking Alltoallv on parallel goroutines, so `go test
// -race` can see any shared state touched by the progress engine.
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
			gc := make([]int, size)
			for r := range gc {
				gc[r] = (r + i) % 3 // includes a zero block
			}
			gd, gspan := packedDispls(dt, gc)
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, i%3 == 0))
			ok := make([]bool, size)
			w.Run(func(m *Rank) {
				me := m.Rank()
				g1, g2 := m.Malloc(gspan), m.Malloc(gspan)
				if gc[me] > 0 {
					mem.FillPattern(vslot(g1, dt, gc[me], gd[me]), uint64(i*1000+me))
					mem.FillPattern(vslot(g2, dt, gc[me], gd[me]), uint64(i*1000+500+me))
				}
				reqs := []*Request{
					m.Iallgatherv(g1, gc, gd, dt),
					m.Iallgatherv(g2, gc, gd, dt),
				}
				sd, sspan := packedDispls(dt, sc[me])
				rd, rspan := packedDispls(dt, rc[me])
				vs, vr := m.Malloc(sspan), m.Malloc(rspan)
				for j := 0; j < size; j++ {
					if sc[me][j] > 0 {
						mem.FillPattern(vslot(vs, dt, sc[me][j], sd[j]), uint64(i*1000+me*size+j))
					}
				}
				m.Alltoallv(vs, sc[me], sd, dt, vr, rc[me], rd, dt)
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
