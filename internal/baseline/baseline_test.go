package baseline

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

func TestVectorizeVectorType(t *testing.T) {
	dt := shapes.SubMatrix(8, 4, 16) // 4 cols of 8 doubles, ld 16
	segs := Vectorize(dt, 1)
	want := []VecSeg{{Off: 0, Len: 64, Stride: 128, Count: 4}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestVectorizeTriangularDegenerates(t *testing.T) {
	n := 16
	segs := Vectorize(shapes.LowerTriangular(n), 1)
	// Ragged columns: one segment per column (no two adjacent columns
	// share a length).
	if len(segs) != n {
		t.Fatalf("segments = %d, want %d", len(segs), n)
	}
	for i, s := range segs {
		if s.Count != 1 || s.Len != int64(n-i)*8 {
			t.Fatalf("seg %d = %+v", i, s)
		}
	}
}

func TestVectorizeContiguous(t *testing.T) {
	segs := Vectorize(datatype.Contiguous(100, datatype.Float64), 3)
	if len(segs) != 1 || segs[0].Count != 1 || segs[0].Len != 2400 {
		t.Fatalf("segs = %+v", segs)
	}
}

func TestVectorizeCoversAllBytes(t *testing.T) {
	for _, dt := range []*datatype.Datatype{
		shapes.SubMatrix(5, 7, 11),
		shapes.LowerTriangular(9),
		shapes.Transpose(6),
	} {
		var total int64
		for _, s := range Vectorize(dt, 2) {
			total += s.PackedLen()
		}
		if total != 2*dt.Size() {
			t.Fatalf("%s: vectorized %d bytes, want %d", dt.Name(), total, 2*dt.Size())
		}
	}
}

func solutionRig(t *testing.T) (*sim.Engine, *cuda.Ctx) {
	t.Helper()
	e := sim.NewEngine()
	node := pcie.NewNode(e, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	return e, cuda.NewCtx(node)
}

func TestSolutionsProduceCorrectPacking(t *testing.T) {
	e, ctx := solutionRig(t)
	dt := shapes.LowerTriangular(32)
	span := dt.Span(1)
	buf := ctx.Malloc(0, span)
	mem.FillPattern(buf, 17)
	c := datatype.NewConverter(dt, 1)
	want := make([]byte, c.Total())
	c.Pack(want, buf.Bytes())

	dstA := ctx.MallocHost(dt.Size())
	dstB := ctx.MallocHost(dt.Size())
	dstC := ctx.Malloc(0, dt.Size())
	scratch := ctx.MallocHost(span)
	var ta, tb, tc sim.Time
	e.Spawn("bench", func(p *sim.Proc) {
		t0 := p.Now()
		SolutionA(p, ctx, buf, dt, 1, dstA, scratch)
		ta = p.Now() - t0
		t0 = p.Now()
		SolutionB(p, ctx, buf, dt, 1, dstB)
		tb = p.Now() - t0
		t0 = p.Now()
		SolutionC(p, ctx, buf, dt, 1, dstC)
		tc = p.Now() - t0
	})
	e.Run()
	for i, d := range []mem.Buffer{dstA, dstB, dstC} {
		if !bytes.Equal(d.Bytes(), want) {
			t.Fatalf("solution %c packed wrong bytes", 'A'+i)
		}
	}
	// Per-block overhead dominates B and C for a 32-column triangle.
	if tb < ta || tc < ta/2 {
		t.Logf("ta=%v tb=%v tc=%v", ta, tb, tc)
	}
}

func TestMVAPICHStrategyCorrectAndSlower(t *testing.T) {
	n := 512
	dt := shapes.LowerTriangular(n)
	run := func(strategy mpi.Strategy) (img []byte, dur sim.Time) {
		w := mpi.NewWorld(mpi.Config{
			Ranks:  []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
			Tuning: &mpi.Tuning{Strategy: strategy},
		})
		var rbuf mem.Buffer
		span := int64(n*n) * 8
		w.Run(func(m *mpi.Rank) {
			buf := m.Malloc(span)
			if m.Rank() == 0 {
				mem.FillPattern(buf, 123)
				m.Barrier()
				t0 := m.Now()
				m.Send(buf, dt, 1, 1, 0)
				dur = m.Now() - t0
			} else {
				rbuf = buf
				m.Barrier()
				m.Recv(buf, dt, 1, 0, 0)
			}
		})
		c := datatype.NewConverter(dt, 1)
		img = make([]byte, c.Total())
		c.Pack(img, rbuf.Bytes())
		return img, dur
	}
	oursImg, oursT := run(nil) // default pipelined strategy
	mvImg, mvT := run(&MVAPICHStrategy{})
	if !bytes.Equal(oursImg, mvImg) {
		t.Fatal("strategies delivered different data")
	}
	// The paper's headline: for indexed datatypes MVAPICH collapses
	// (per-column cudaMemcpy2D, no pipeline).
	if mvT < 4*oursT {
		t.Fatalf("MVAPICH (%v) should be >> slower than ours (%v) on triangular", mvT, oursT)
	}
	t.Logf("triangular %dx%d: ours %v, mvapich %v (%.1fx)", n, n, oursT, mvT, float64(mvT)/float64(oursT))
}

func TestMVAPICHVectorCloserButStillSlower(t *testing.T) {
	n := 1024
	dt := shapes.SubMatrix(n, n, n)
	run := func(strategy mpi.Strategy) sim.Time {
		w := mpi.NewWorld(mpi.Config{
			Ranks:  []mpi.Placement{{Node: 0, GPU: 0}, {Node: 1, GPU: 0}},
			Tuning: &mpi.Tuning{Strategy: strategy},
		})
		var dur sim.Time
		w.Run(func(m *mpi.Rank) {
			buf := m.Malloc(int64(n*n) * 8)
			if m.Rank() == 0 {
				m.Barrier()
				t0 := m.Now()
				m.Send(buf, dt, 1, 1, 0)
				dur = m.Now() - t0
			} else {
				m.Barrier()
				m.Recv(buf, dt, 1, 0, 0)
			}
		})
		return dur
	}
	ours := run(nil)
	mv := run(&MVAPICHStrategy{})
	if mv <= ours {
		t.Fatalf("MVAPICH (%v) should be slower than ours (%v) on IB vector", mv, ours)
	}
	ratio := float64(mv) / float64(ours)
	if ratio > 4 {
		t.Fatalf("IB vector gap too extreme: %.1fx (paper: roughly 1.5-2.5x)", ratio)
	}
	t.Logf("IB vector %dx%d: ours %v, mvapich %v (%.2fx)", n, n, ours, mv, ratio)
}

// TestMVAPICHPartialReceive ends a message mid-way through the
// receiver's vector layout: stageIn must clamp its per-segment
// cudaMemcpy2D scatter to the bytes that actually arrived instead of
// overrunning the staging buffer.
func TestMVAPICHPartialReceive(t *testing.T) {
	const sentElems = 75_000 // 600 KB of a 1 MB receive layout
	sendDt := datatype.Contiguous(sentElems, datatype.Float64)
	recvDt := shapes.SubMatrix(512, 256, 512)
	w := mpi.NewWorld(mpi.Config{
		Ranks:  []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
		Tuning: &mpi.Tuning{Strategy: &MVAPICHStrategy{}},
	})
	var sent, got []byte
	w.Run(func(m *mpi.Rank) {
		if m.Rank() == 0 {
			b := m.Malloc(sendDt.Size())
			mem.FillPattern(b, 77)
			sent = append([]byte(nil), b.Bytes()...)
			m.Send(b, sendDt, 1, 1, 0)
		} else {
			span := int64(512*512) * 8
			b := m.Malloc(span)
			mem.Fill(b, 0)
			m.Recv(b, recvDt, 1, 0, 0)
			c := datatype.NewConverter(recvDt, 1)
			got = make([]byte, c.Total())
			c.Pack(got, b.Bytes())
		}
	})
	if !bytes.Equal(got[:len(sent)], sent) {
		t.Fatal("MVAPICH partial receive corrupted the prefix")
	}
	for i := len(sent); i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("packed byte %d beyond the message was written", i)
		}
	}
}

// TestMVAPICHVectorizesOnce: a strategy value vectorizes a (datatype,
// count) once and serves every later stageOut and stageIn the same
// segments — across worlds, and from worlds running concurrently, as
// `ddtbench -parallel` runs them (meaningful under -race).
func TestMVAPICHVectorizesOnce(t *testing.T) {
	dt := shapes.LowerTriangular(192) // past the eager limit
	s := &MVAPICHStrategy{}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := mpi.NewWorld(mpi.Config{
				Ranks:  []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}},
				Tuning: &mpi.Tuning{Strategy: s},
			})
			w.Run(func(m *mpi.Rank) {
				buf := m.Malloc(dt.Span(1))
				for j := 0; j < 2; j++ {
					if m.Rank() == 0 {
						m.Send(buf, dt, 1, 1, j)
					} else {
						m.Recv(buf, dt, 1, 0, j)
					}
				}
			})
		}()
	}
	wg.Wait()
	segs := s.segs[segKey{dt, 1}]
	if len(s.segs) != 1 || !reflect.DeepEqual(segs, Vectorize(dt, 1)) {
		t.Fatalf("strategy holds %d segment lists, want the one Vectorize gives", len(s.segs))
	}
	if &s.vectorized(dt, 1)[0] != &segs[0] {
		t.Fatal("a later message vectorized again")
	}
}
