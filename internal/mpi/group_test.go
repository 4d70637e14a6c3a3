package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// fillF64 writes f(k) into element k of a float64 buffer.
func fillF64(b mem.Buffer, n int, f func(k int) float64) {
	raw := b.Bytes()
	for k := 0; k < n; k++ {
		binary.LittleEndian.PutUint64(raw[8*k:], math.Float64bits(f(k)))
	}
}

// readF64 returns element k of a float64 buffer.
func readF64(b mem.Buffer, k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Bytes()[8*k:]))
}

// contrib is the per-rank allreduce contribution: integer-valued
// float64s, so the sum is exact under any association order and every
// algorithm must produce byte-identical results.
func contrib(rank, k int) float64 { return float64((k%17 + 1) * (rank + 1)) }

// TestGroupAllreduceOracle checks ring, tree, and the native world
// Allreduce against a reference elementwise sum, on a hierarchical
// (blocked multi-node) world and on the forced-flat fallback, for
// group sizes that exercise uneven and empty ring chunks.
func TestGroupAllreduceOracle(t *testing.T) {
	shapes := []struct {
		nodes, rpn int
		flat       bool
	}{{4, 4, false}, {4, 4, true}, {3, 2, false}, {2, 2, true}}
	counts := []int{1037, 64, 3, 1} // uneven chunks, even, fewer than ranks, single
	for _, sh := range shapes {
		size := sh.nodes * sh.rpn
		everyone, odd := []int{}, []int{}
		for r := 0; r < size; r++ {
			everyone = append(everyone, r)
			if r%2 == 1 {
				odd = append(odd, r)
			}
		}
		groups := [][]int{everyone, odd}
		for gi, members := range groups {
			for _, n := range counts {
				for _, alg := range []AllreduceAlg{AllreduceRing, AllreduceTree} {
					name := fmt.Sprintf("%dx%d flat=%v group%d n=%d %s", sh.nodes, sh.rpn, sh.flat, gi, n, alg)
					w := NewWorld(blockedConfig(sh.nodes, sh.rpn, sh.flat))
					g := w.NewGroup(members)
					dt := datatype.Float64
					sum := 0
					for _, r := range members {
						sum += r + 1
					}
					w.Run(func(m *Rank) {
						if !g.Contains(m.Rank()) {
							return
						}
						sb := m.Malloc(int64(n) * 8)
						rb := m.Malloc(int64(n) * 8)
						fillF64(sb, n, func(k int) float64 { return contrib(m.Rank(), k) })
						g.Allreduce(m, sb, rb, dt, n, OpSum, alg)
						for k := 0; k < n; k++ {
							want := float64((k%17 + 1) * sum)
							if got := readF64(rb, k); got != want {
								t.Errorf("%s: rank %d elem %d = %v, want %v", name, m.Rank(), k, got, want)
								return
							}
						}
					})
					checkQuiescent(t, w, name)
					w.Close()
				}
			}
		}

		// Native world Allreduce against the same reference sum:
		// the hier/flat dispatch is inside Reduce+Bcast.
		n := 513
		dt := datatype.Float64
		w := NewWorld(blockedConfig(sh.nodes, sh.rpn, sh.flat))
		w.Run(func(m *Rank) {
			sb := m.Malloc(int64(n) * 8)
			rb := m.Malloc(int64(n) * 8)
			fillF64(sb, n, func(k int) float64 { return contrib(m.Rank(), k) })
			m.Allreduce(sb, rb, dt, n, OpSum)
			for k := 0; k < n; k++ {
				want := float64((k%17 + 1) * size * (size + 1) / 2)
				if got := readF64(rb, k); got != want {
					t.Errorf("native %dx%d flat=%v: rank %d elem %d = %v, want %v",
						sh.nodes, sh.rpn, sh.flat, m.Rank(), k, got, want)
					return
				}
			}
		})
		checkQuiescent(t, w, "native allreduce")
		w.Close()

		// One schedule, pinned as a property: on a flat world a group
		// spanning every rank in order runs the very algorithms the
		// world collectives run, so tree Allreduce and Alltoallv must
		// agree in bytes and in virtual completion time, rank by rank.
		if sh.flat {
			wb, wt := overWorld(t, sh.nodes, sh.rpn, nil)
			gb, gt := overWorld(t, sh.nodes, sh.rpn, everyone)
			for r := 0; r < size; r++ {
				if !bytes.Equal(wb[r], gb[r]) {
					t.Errorf("%dx%d rank %d: group-over-world bytes differ from the world collectives", sh.nodes, sh.rpn, r)
				}
				if wt[r] != gt[r] {
					t.Errorf("%dx%d rank %d: group-over-world finished at %v, world at %v", sh.nodes, sh.rpn, r, gt[r], wt[r])
				}
			}
		}
	}
}

// overWorld runs a tree Allreduce and then an irregular Alltoallv on a
// flat world — through a Group over members when non-nil, through the
// world collectives otherwise — and returns each rank's received bytes
// and the virtual time it finished at.
func overWorld(t *testing.T, nodes, rpn int, members []int) ([][]byte, []sim.Time) {
	t.Helper()
	size := nodes * rpn
	w := NewWorld(blockedConfig(nodes, rpn, true))
	defer w.Close()
	var g *Group
	if members != nil {
		g = w.NewGroup(members)
	}
	const n = 257
	dt := datatype.Float64
	imgs, ends := make([][]byte, size), make([]sim.Time, size)
	w.Run(func(m *Rank) {
		me := m.Rank()
		sb, rb := m.Malloc(n*8), m.Malloc(n*8)
		fillF64(sb, n, func(k int) float64 { return contrib(me, k) })
		// counts[i][j] = (i+2j)%4 elements from i to j; zeros included.
		sc, sd, rc, rd := make([]int, size), make([]int, size), make([]int, size), make([]int, size)
		stot, rtot := 0, 0
		for j := 0; j < size; j++ {
			sc[j], rc[j] = (me+2*j)%4, (j+2*me)%4
			sd[j], rd[j] = stot, rtot
			stot, rtot = stot+sc[j], rtot+rc[j]
		}
		vs, vr := m.Malloc(int64(stot+1)*8), m.Malloc(int64(rtot+1)*8)
		fillF64(vs, stot, func(k int) float64 { return float64(me*1000 + k) })
		if g != nil {
			g.Allreduce(m, sb, rb, dt, n, OpSum, AllreduceTree)
			g.Alltoallv(m, vs, sc, sd, dt, vr, rc, rd, dt)
		} else {
			m.Allreduce(sb, rb, dt, n, OpSum)
			m.Alltoallv(vs, sc, sd, dt, vr, rc, rd, dt)
		}
		ends[me] = m.Now()
		imgs[me] = append(append([]byte(nil), rb.Bytes()...), vr.Bytes()[:rtot*8]...)
	})
	checkQuiescent(t, w, "group over world")
	return imgs, ends
}

// TestGroupIndependentJobs co-runs two disjoint groups in one world,
// each iterating its own barriers and allreduces a different number of
// times, and checks both oracles: group traffic must never cross-match
// between jobs.
func TestGroupIndependentJobs(t *testing.T) {
	const nodes, rpn = 4, 2
	size := nodes * rpn
	w := NewWorld(blockedConfig(nodes, rpn, false))
	a := w.NewGroup([]int{0, 2, 4, 6})
	b := w.NewGroup([]int{1, 3, 5, 7})
	const n = 129
	dt := datatype.Float64
	run := func(m *Rank, g *Group, iters int) {
		sb := m.Malloc(n * 8)
		rb := m.Malloc(n * 8)
		sum := 0
		for _, r := range g.Ranks() {
			sum += r + 1
		}
		for it := 0; it < iters; it++ {
			alg := AllreduceRing
			if it%2 == 1 {
				alg = AllreduceTree
			}
			fillF64(sb, n, func(k int) float64 { return contrib(m.Rank(), k+it) })
			g.Allreduce(m, sb, rb, dt, n, OpSum, alg)
			g.Barrier(m)
			for k := 0; k < n; k++ {
				want := float64(((k+it)%17 + 1) * sum)
				if got := readF64(rb, k); got != want {
					t.Errorf("iter %d rank %d elem %d = %v, want %v", it, m.Rank(), k, got, want)
					return
				}
			}
		}
	}
	w.Run(func(m *Rank) {
		if a.Contains(m.Rank()) {
			run(m, a, 3)
		} else {
			run(m, b, 5)
		}
	})
	checkQuiescent(t, w, "independent jobs")
	if size != w.Size() {
		t.Fatalf("world size = %d, want %d", w.Size(), size)
	}
	w.Close()
}

// TestGroupBarrier makes members arrive at skewed virtual times and
// asserts nobody leaves the barrier before the last arrival.
func TestGroupBarrier(t *testing.T) {
	w := NewWorld(blockedConfig(2, 3, false))
	g := w.NewGroup([]int{0, 1, 2, 3, 4})
	arrive := make([]sim.Time, g.Size())
	leave := make([]sim.Time, g.Size())
	w.Run(func(m *Rank) {
		if !g.Contains(m.Rank()) {
			return
		}
		lr := g.LocalRank(m)
		m.Proc().Sleep(sim.Time(lr) * 1e9) // 1ms per local rank
		arrive[lr] = m.Now()
		g.Barrier(m)
		leave[lr] = m.Now()
	})
	var last sim.Time
	for _, a := range arrive {
		if a > last {
			last = a
		}
	}
	for lr, l := range leave {
		if l < last {
			t.Errorf("local rank %d left the barrier at %d, before last arrival %d", lr, l, last)
		}
	}
	checkQuiescent(t, w, "group barrier")
	w.Close()
}

// TestGroupAlltoallv drives the group-scoped Alltoallv with a skewed
// count matrix that includes zero rows and columns, and verifies every
// received block against the sender's generator.
func TestGroupAlltoallv(t *testing.T) {
	w := NewWorld(blockedConfig(3, 2, false))
	members := []int{0, 1, 3, 4, 5}
	g := w.NewGroup(members)
	size := g.Size()
	// counts[i][j]: sender i -> receiver j, in float64 elements.
	counts := make([][]int, size)
	for i := range counts {
		counts[i] = make([]int, size)
		for j := range counts[i] {
			if i == 2 { // silent sender
				continue
			}
			counts[i][j] = (i*3+j*5)%7 + 1
			if j == 1 && i != 0 {
				counts[i][j] = 0 // nearly-silent receiver column
			}
		}
	}
	w.Run(func(m *Rank) {
		if !g.Contains(m.Rank()) {
			return
		}
		lr := g.LocalRank(m)
		scounts, rcounts := counts[lr], make([]int, size)
		sdispls, rdispls := make([]int, size), make([]int, size)
		stot, rtot := 0, 0
		for j := 0; j < size; j++ {
			sdispls[j] = stot
			stot += scounts[j]
			rcounts[j] = counts[j][lr]
			rdispls[j] = rtot
			rtot += rcounts[j]
		}
		sb := m.Malloc(int64(stot+1) * 8)
		rb := m.Malloc(int64(rtot+1) * 8)
		fillF64(sb, stot, func(k int) float64 { return float64(lr*1000 + k) })
		g.Alltoallv(m, sb, scounts, sdispls, datatype.Float64, rb, rcounts, rdispls, datatype.Float64)
		for j := 0; j < size; j++ {
			// Sender j's block for me started at its sdispl for my column.
			base := 0
			for jj := 0; jj < lr; jj++ {
				base += counts[j][jj]
			}
			for k := 0; k < rcounts[j]; k++ {
				want := float64(j*1000 + base + k)
				if got := readF64(rb, rdispls[j]+k); got != want {
					t.Errorf("recv lr=%d from %d elem %d = %v, want %v", lr, j, k, got, want)
					return
				}
			}
		}
	})
	checkQuiescent(t, w, "group alltoallv")
	w.Close()
}

// TestNewGroupValidation covers the misuse panics.
func TestNewGroupValidation(t *testing.T) {
	w := NewWorld(blockedConfig(2, 2, false))
	defer w.Close()
	for name, ranks := range map[string][]int{
		"empty":        {},
		"out of range": {0, 4},
		"negative":     {-1, 0},
		"duplicate":    {0, 1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewGroup did not panic", name)
				}
			}()
			w.NewGroup(ranks)
		}()
	}
}

// Ranks returns the group's global ranks in group order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Contains reports whether global rank r is a member.
func (g *Group) Contains(r int) bool { return r >= 0 && r < len(g.local) && g.local[r] >= 0 }
