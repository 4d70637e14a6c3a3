package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

func TestPutGPUTriangularIntoWindow(t *testing.T) {
	for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
		dt := shapes.LowerTriangular(256)
		w := NewWorld(cfg)
		var sentImg, gotImg []byte
		w.Run(func(m *Rank) {
			win := m.WinCreate(m.Malloc(dt.Span(1)))
			if m.Rank() == 0 {
				src := m.Malloc(dt.Span(1))
				mem.FillPattern(src, 21)
				sentImg = cpuPack(dt, 1, src.Bytes())
				win.Put(src, dt, 1, 1, 0, dt, 1)
				win.Fence()
			} else {
				win.Fence()
				gotImg = cpuPack(dt, 1, win.Buffer().Bytes())
			}
		})
		if !bytes.Equal(sentImg, gotImg) {
			t.Fatalf("put data mismatch")
		}
	}
}

func TestPutReshapesLayout(t *testing.T) {
	// Origin sends a strided vector; the target window stores it
	// contiguously at a displacement.
	n := 256
	vec := shapes.SubMatrix(n, n/2, n)
	contig := datatype.Contiguous(n*n/2, datatype.Float64)
	w := NewWorld(twoRanksTwoGPUs())
	var sentImg, gotImg []byte
	const disp = 4096
	w.Run(func(m *Rank) {
		win := m.WinCreate(m.Malloc(disp + contig.Size()))
		if m.Rank() == 0 {
			src := m.Malloc(vec.Span(1))
			mem.FillPattern(src, 8)
			sentImg = cpuPack(vec, 1, src.Bytes())
			win.Put(src, vec, 1, 1, disp, contig, 1)
			win.Fence()
		} else {
			win.Fence()
			gotImg = append([]byte(nil), win.Buffer().Slice(disp, contig.Size()).Bytes()...)
		}
	})
	if !bytes.Equal(sentImg, gotImg) {
		t.Fatal("reshaped put mismatch")
	}
}

func TestGetGPUVector(t *testing.T) {
	for _, cfg := range []Config{twoRanksTwoGPUs(), twoNodes()} {
		n := 256
		dt := shapes.SubMatrix(n, n/2, n)
		w := NewWorld(cfg)
		var wantImg, gotImg []byte
		w.Run(func(m *Rank) {
			winBuf := m.Malloc(dt.Span(1))
			if m.Rank() == 1 {
				mem.FillPattern(winBuf, 77)
				wantImg = cpuPack(dt, 1, winBuf.Bytes())
			}
			win := m.WinCreate(winBuf)
			if m.Rank() == 0 {
				dst := m.Malloc(dt.Span(1))
				win.Get(dst, dt, 1, 1, 0, dt, 1)
				win.Fence()
				gotImg = cpuPack(dt, 1, dst.Bytes())
			} else {
				win.Fence()
			}
		})
		if !bytes.Equal(wantImg, gotImg) {
			t.Fatal("get data mismatch")
		}
	}
}

func TestFenceEpochsSequence(t *testing.T) {
	// Two epochs: put in epoch 1, overwrite in epoch 2; reader sees the
	// final value after the second fence.
	dt := datatype.Contiguous(100000, datatype.Float64)
	w := NewWorld(twoRanksTwoGPUs())
	var got byte
	w.Run(func(m *Rank) {
		win := m.WinCreate(m.MallocHost(dt.Size()))
		if m.Rank() == 0 {
			a := m.MallocHost(dt.Size())
			fillByte(a, 0x11)
			win.Put(a, dt, 1, 1, 0, dt, 1)
			win.Fence()
			fillByte(a, 0x22)
			win.Put(a, dt, 1, 1, 0, dt, 1)
			win.Fence()
		} else {
			win.Fence()
			win.Fence()
			got = win.Buffer().Bytes()[0]
		}
	})
	if got != 0x22 {
		t.Fatalf("window byte = %x, want 22", got)
	}
}

func TestRMASignatureMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w := NewWorld(twoRanksSameGPU())
	w.Run(func(m *Rank) {
		win := m.WinCreate(m.MallocHost(1024))
		if m.Rank() == 0 {
			win.Put(m.MallocHost(1024), datatype.Contiguous(128, datatype.Float64), 1,
				1, 0, datatype.Contiguous(256, datatype.Float32), 1) // f64 vs f32
		}
		win.Fence()
	})
}

func TestConcurrentPutsToDistinctRegions(t *testing.T) {
	// Ranks 1..3 all put into disjoint regions of rank 0's window in the
	// same epoch.
	dt := datatype.Contiguous(100000, datatype.Byte)
	w := NewWorld(fourRanks())
	var final []byte
	w.Run(func(m *Rank) {
		win := m.WinCreate(m.MallocHost(3 * dt.Size()))
		if m.Rank() != 0 {
			src := m.MallocHost(dt.Size())
			fillByte(src, byte(0x30+m.Rank()))
			win.Put(src, dt, 1, 0, int64(m.Rank()-1)*dt.Size(), dt, 1)
		}
		win.Fence()
		if m.Rank() == 0 {
			final = append([]byte(nil), win.Buffer().Bytes()...)
		}
	})
	for r := 1; r < 4; r++ {
		seg := final[(r-1)*int(dt.Size()) : r*int(dt.Size())]
		for i, b := range seg {
			if b != byte(0x30+r) {
				t.Fatalf("rank %d region byte %d = %x", r, i, b)
			}
		}
	}
}

// Buffer returns the locally exposed window memory.
func (w *Win) Buffer() mem.Buffer { return w.buf }
