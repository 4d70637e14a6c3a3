package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
)

func putF64(b mem.Buffer, i int, v float64) {
	binary.LittleEndian.PutUint64(b.Bytes()[i*8:], math.Float64bits(v))
}
func getF64(b mem.Buffer, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Bytes()[i*8:]))
}

func TestReduceSumGPU(t *testing.T) {
	const elems = 30000 // 240 KB: rendezvous
	dt := datatype.Contiguous(elems, datatype.Float64)
	for root := 0; root < 4; root++ {
		w := NewWorld(fourRanks())
		var result mem.Buffer
		w.Run(func(m *Rank) {
			send := m.Malloc(dt.Size())
			for i := 0; i < elems; i++ {
				putF64(send, i, float64((m.Rank()+1)*(i%7+1)))
			}
			var recv mem.Buffer
			if m.Rank() == root {
				recv = m.Malloc(dt.Size())
				result = recv
			}
			m.Reduce(send, recv, dt, 1, OpSum, root)
		})
		for i := 0; i < elems; i += 997 {
			want := float64((1 + 2 + 3 + 4) * (i%7 + 1))
			if got := getF64(result, i); got != want {
				t.Fatalf("root %d elem %d = %v, want %v", root, i, got, want)
			}
		}
	}
}

func TestReduceMaxHost(t *testing.T) {
	const elems = 20000
	dt := datatype.Contiguous(elems, datatype.Float64)
	w := NewWorld(fourRanks())
	var result mem.Buffer
	w.Run(func(m *Rank) {
		send := m.MallocHost(dt.Size())
		for i := 0; i < elems; i++ {
			// Rank (i mod 4) holds the max for element i.
			v := float64(10 * (m.Rank() + 1))
			if m.Rank() == i%4 {
				v = 1000 + float64(i)
			}
			putF64(send, i, v)
		}
		var recv mem.Buffer
		if m.Rank() == 0 {
			recv = m.MallocHost(dt.Size())
			result = recv
		}
		m.Reduce(send, recv, dt, 1, OpMax, 0)
	})
	for i := 0; i < elems; i += 501 {
		if got := getF64(result, i); got != 1000+float64(i) {
			t.Fatalf("elem %d = %v, want %v", i, got, 1000+float64(i))
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	const elems = 25000
	dt := datatype.Contiguous(elems, datatype.Float64)
	w := NewWorld(fourRanks())
	results := make([]mem.Buffer, 4)
	w.Run(func(m *Rank) {
		send := m.Malloc(dt.Size())
		for i := 0; i < elems; i++ {
			putF64(send, i, float64(m.Rank()+1))
		}
		recv := m.Malloc(dt.Size())
		m.Allreduce(send, recv, dt, 1, OpSum)
		results[m.Rank()] = recv
	})
	for r := 0; r < 4; r++ {
		for i := 0; i < elems; i += 1234 {
			if got := getF64(results[r], i); got != 10 {
				t.Fatalf("rank %d elem %d = %v, want 10", r, i, got)
			}
		}
	}
}

func TestReduceInt64Sum(t *testing.T) {
	const elems = 16000
	dt := datatype.Contiguous(elems, datatype.Int64)
	w := NewWorld(fourRanks())
	var result mem.Buffer
	w.Run(func(m *Rank) {
		send := m.MallocHost(dt.Size())
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(send.Bytes()[i*8:], uint64(m.Rank()+1))
		}
		var recv mem.Buffer
		if m.Rank() == 0 {
			recv = m.MallocHost(dt.Size())
			result = recv
		}
		m.Reduce(send, recv, dt, 1, OpSum, 0)
	})
	for i := 0; i < elems; i += 333 {
		if got := binary.LittleEndian.Uint64(result.Bytes()[i*8:]); got != 10 {
			t.Fatalf("elem %d = %d, want 10", i, got)
		}
	}
}

func TestReduceRejectsNonContiguous(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w := NewWorld(twoRanksSameGPU())
	w.Run(func(m *Rank) {
		vec := datatype.Vector(4, 1, 2, datatype.Float64)
		m.Reduce(m.MallocHost(1024), m.MallocHost(1024), vec, 1, OpSum, 0)
	})
}

// TestReduceCountMismatch: a rank whose contribution is one element
// short of the root's count fails the reduction by name — before, the
// root took it as a legal partial receive and folded the stale tail of
// its receive buffer — on the flat and the hierarchical world Reduce
// and on Group Allreduce's tree, on device and on host; one element
// long is the point-to-point layer's truncation.
func TestReduceCountMismatch(t *testing.T) {
	const count = 8
	dt := datatype.Int64
	for _, tc := range []struct {
		name string
		cfg  Config
		what string
		run  func(g *Group, m *Rank, send, recv mem.Buffer, n int)
	}{
		{"flat Reduce", blockedConfig(1, 2, true), "Reduce", func(g *Group, m *Rank, send, recv mem.Buffer, n int) {
			m.Reduce(send, recv, dt, n, OpSum, 0)
		}},
		{"hierarchical Reduce", blockedConfig(2, 2, false), "Reduce", func(g *Group, m *Rank, send, recv mem.Buffer, n int) {
			m.Reduce(send, recv, dt, n, OpSum, 0)
		}},
		{"group Allreduce tree", blockedConfig(1, 2, true), "group Allreduce", func(g *Group, m *Rank, send, recv mem.Buffer, n int) {
			g.Allreduce(m, send, recv, dt, n, OpSum, AllreduceTree)
		}},
	} {
		for _, host := range []bool{false, true} {
			for _, delta := range []int{-1, +1} {
				want := "mpi: " + tc.what + ": rank 0"
				if delta > 0 {
					want = "mpi: truncation"
				}
				func() {
					defer func() {
						if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
							t.Errorf("%s host=%v: rank 1 contributes %+d elements: panic %q, want %q", tc.name, host, delta, msg, want)
						}
					}()
					w := NewWorld(tc.cfg)
					defer w.Close()
					g := w.NewGroup([]int{0, 1})
					w.Run(func(m *Rank) {
						n := count
						if m.Rank() == 1 {
							n += delta
						}
						alloc := m.Malloc
						if host {
							alloc = m.MallocHost
						}
						send, recv := alloc(8*(count+1)), alloc(8*(count+1))
						tc.run(g, m, send, recv, n)
					})
				}()
			}
		}
	}
}
