package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// Tests of "a block stays packed while a collective holds it" (coll.go).

// heldColls are the collectives whose blocks can be held.
var heldColls = []string{"bcast", "allgather", "alltoall", "allgatherv", "alltoallv"}

// heldRun runs one collective over blocks of dt on a fresh world and
// returns every rank's result, packed by the CPU converter, and the
// kernels each rank's GPU ran. The irregular collectives move 0, 1 or
// vmax elements per block, empty blocks included; the regular ones move
// one element (Bcast three). Every result block is checked against the
// packed bytes its sender filled in — the CPU oracle — and a world with
// a fault plan must have injected a fault.
func heldRun(t *testing.T, cfg Config, coll string, dt *datatype.Datatype, vmax int, host bool) ([][]byte, []int64) {
	t.Helper()
	size := len(cfg.Ranks)
	w := NewWorld(cfg)
	defer w.Close()
	root := size - 1
	vcount := func(i, j int) int { return []int{vmax, 0, 1}[(i+2*j)%3] } // elements i sends to j
	imgs, kernels := make([][]byte, size), make([]int64, size)
	sent := make([][][]byte, size) // sent[i][j]: packed bytes of the block i contributes (to j)
	for i := range sent {
		sent[i] = make([][]byte, size)
	}
	w.Run(func(m *Rank) {
		me := m.Rank()
		alloc := m.Malloc
		if host {
			alloc = m.MallocHost
		}
		fill := func(b mem.Buffer, count, j int) {
			if count > 0 {
				mem.FillPattern(b, uint64(9000+me*size+j))
				sent[me][j] = cpuPack(dt, count, b.Bytes())
			}
		}
		var result func() []byte
		before := m.Engine().Device().KernelsRun()
		switch coll {
		case "bcast":
			buf := alloc(dt.Span(3))
			if me == root {
				fill(buf, 3, 0)
			}
			m.Bcast(buf, dt, 3, root)
			result = func() []byte { return cpuPack(dt, 3, buf.Bytes()) }
		case "allgather":
			buf := alloc(dt.Span(size))
			fill(vslot(buf, dt, 1, me), 1, 0)
			m.Allgather(buf, dt, 1)
			result = func() []byte { return cpuPack(dt, size, buf.Bytes()) }
		case "alltoall":
			sbuf, rbuf := alloc(dt.Span(size)), alloc(dt.Span(size))
			for j := 0; j < size; j++ {
				fill(vslot(sbuf, dt, 1, j), 1, j)
			}
			m.Alltoall(sbuf, dt, 1, rbuf, dt, 1)
			result = func() []byte { return cpuPack(dt, size, rbuf.Bytes()) }
		case "allgatherv":
			counts := make([]int, size)
			for r := range counts {
				counts[r] = vcount(r, 0)
			}
			displs, span := packedDispls(dt, counts)
			buf := alloc(span)
			fill(vslot(buf, dt, counts[me], displs[me]), counts[me], 0)
			m.Allgatherv(buf, counts, displs, dt)
			result = func() []byte {
				var img []byte
				for r, c := range counts {
					img = append(img, cpuPack(dt, c, vslot(buf, dt, c, displs[r]).Bytes())...)
				}
				return img
			}
		case "alltoallv":
			sc, rc := make([]int, size), make([]int, size)
			for j := range sc {
				sc[j], rc[j] = vcount(me, j), vcount(j, me)
			}
			sd, sspan := packedDispls(dt, sc)
			rd, rspan := packedDispls(dt, rc)
			sbuf, rbuf := alloc(sspan), alloc(rspan)
			for j, c := range sc {
				fill(vslot(sbuf, dt, c, sd[j]), c, j)
			}
			m.Alltoallv(sbuf, sc, sd, dt, rbuf, rc, rd, dt)
			result = func() []byte {
				var img []byte
				for j, c := range rc {
					img = append(img, cpuPack(dt, c, vslot(rbuf, dt, c, rd[j]).Bytes())...)
				}
				return img
			}
		}
		kernels[me] = m.Engine().Device().KernelsRun() - before
		imgs[me] = result()
	})
	checkQuiescent(t, w, coll)
	if cfg.Faults != nil && w.Faults().Total() == 0 {
		t.Fatalf("%s: no fault injected; the chaos run is vacuous", coll)
	}
	for me := range imgs {
		var want []byte
		for s := 0; s < size; s++ {
			switch coll {
			case "bcast":
				want = sent[root][0]
			case "allgather", "allgatherv":
				want = append(want, sent[s][0]...)
			default:
				want = append(want, sent[s][me]...)
			}
		}
		if !bytes.Equal(imgs[me], want) {
			t.Fatalf("%s: rank %d's result differs from the CPU oracle", coll, me)
		}
	}
	return imgs, kernels
}

// heldConfig is blockedConfig with an eager limit.
func heldConfig(nodes, rpn int, flat bool, eager int64) Config {
	cfg := blockedConfig(nodes, rpn, flat)
	cfg.Tuning = &Tuning{Eager: Eager(eager)}
	if flat {
		cfg.Tuning.Collectives = CollFlat
	}
	return cfg
}

// TestCollKernelBudget: with eager-sized blocks a rank launches at most
// two pack and two unpack kernels per collective, flat or hierarchical,
// however many peers it has. Blocks eight bytes over the eager limit,
// and a two-rank world, launch what the per-message path launches: the
// literals are the world's kernels at the commit before blocks were
// held. Two shapes differ from them by design. The wire-format stage
// of the hierarchical Allgatherv is packed and unpacked by one kernel
// at any block size (176 kernels before). And on two ranks Alltoall(v)
// has two blocks each way, its own and its peer's, so holding them is
// two kernels where there were four (three).
func TestCollKernelBudget(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)  // 1 KiB packed
	perMessage := map[string][2]int64{ // flat, hier
		"bcast": {30, 30}, "allgather": {480, 72}, "alltoall": {512, 32},
		"allgatherv": {330, 27}, "alltoallv": {342, 342},
	}
	twoRanks := map[string]int64{"bcast": 1, "allgather": 2, "alltoall": 2, "allgatherv": 1, "alltoallv": 2}
	for _, coll := range heldColls {
		for ai, flat := range []bool{true, false} {
			_, k := heldRun(t, heldConfig(4, 4, flat, 64<<10), coll, dt, 2, false)
			for r, n := range k {
				if n > 4 {
					t.Errorf("%s flat=%v: rank %d launched %d kernels, want at most 2 pack + 2 unpack", coll, flat, r, n)
				}
			}
			_, k = heldRun(t, heldConfig(4, 4, flat, dt.Size()-8), coll, dt, 1, false)
			if got, want := sumKernels(k), perMessage[coll][ai]; got != want {
				t.Errorf("%s flat=%v, blocks of eager+8 bytes: %d kernels, want the per-message path's %d", coll, flat, got, want)
			}
		}
		_, k := heldRun(t, heldConfig(1, 2, true, 64<<10), coll, dt, 2, false)
		for r, n := range k {
			if n != twoRanks[coll] {
				t.Errorf("%s on two ranks: rank %d launched %d kernels, want %d", coll, r, n, twoRanks[coll])
			}
		}
	}
}

func sumKernels(k []int64) (n int64) {
	for _, x := range k {
		n += x
	}
	return n
}

// TestHeldBoundaryDifferential runs every collective with its blocks at
// the eager limit and with the large ones eight bytes over it, in device
// and in host memory, flat and hierarchical: every rank's bytes equal
// the CPU oracle's (heldRun) and the hierarchical result equals the flat
// one. Bcast and the large blocks of the irregular collectives are three
// elements of a third of the size, so over the limit an irregular
// collective mixes held (one element) and per-message (three) blocks.
func TestHeldBoundaryDifferential(t *testing.T) {
	one := datatype.Vector(129, 1, 2, datatype.Float64)  // 1032 B packed
	third := datatype.Vector(43, 1, 2, datatype.Float64) // 344 B
	for _, eager := range []int64{1032, 1024} {
		for _, host := range []bool{false, true} {
			for _, coll := range heldColls {
				dt := one
				if coll == "bcast" || strings.HasSuffix(coll, "v") {
					dt = third
				}
				flat, _ := heldRun(t, heldConfig(4, 2, true, eager), coll, dt, 3, host)
				hier, _ := heldRun(t, heldConfig(4, 2, false, eager), coll, dt, 3, host)
				for r := range flat {
					if !bytes.Equal(flat[r], hier[r]) {
						t.Fatalf("%s eager=%d host=%v: rank %d: hierarchical result differs from flat", coll, eager, host, r)
					}
				}
			}
		}
	}
}

// TestHeldBlockSizeMismatch: a peer whose block is eight bytes shorter
// than the window posted for it fails the collective by name, also when
// both sides hold the block as bytes — where the point-to-point layer
// sees a legal partial receive; eight bytes longer is the
// point-to-point layer's truncation.
func TestHeldBlockSizeMismatch(t *testing.T) {
	for _, tc := range []struct {
		delta int
		want  string
	}{{-1, "mpi: Alltoallv: rank"}, {+1, "mpi: truncation"}} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("rank 0 sends rank 1 a block %+d elements off: panic %q, want %q", tc.delta, msg, tc.want)
				}
			}()
			w := NewWorld(blockedConfig(1, 3, true))
			defer w.Close()
			w.Run(func(m *Rank) {
				size, me := m.Size(), m.Rank()
				sc, rc, displs := make([]int, size), make([]int, size), make([]int, size)
				for j := range sc {
					sc[j], rc[j], displs[j] = 4, 4, 8*j
				}
				if me == 0 {
					sc[1] += tc.delta
				}
				sbuf, rbuf := m.Malloc(8*8*int64(size)), m.Malloc(8*8*int64(size))
				m.Alltoallv(sbuf, sc, displs, datatype.Float64, rbuf, rc, displs, datatype.Float64)
			})
		}()
	}
}

// TestHeldChaosKernelCount: a fault retry re-reads the stage or the
// bounce buffer, never the user's memory — under two fault plans, with
// every block eager-sized, the world launches exactly the kernels of a
// clean run and delivers the same bytes. Every buffer these runs
// register is library staging in a pinned arena, so they roll no
// registration fault; the sites they reach are the launches
// (gpu.launch), the host-device copies (pcie.copy), the active messages
// (ib.send) and the RDMA writes (ib.rdma.write). The first plan is
// TestHierChaosSweep's; the second faults those four sites at 10 %,
// so that even the flat broadcast, which crosses each of them only a
// few times, has a fault to retry (at 5 % it had none).
func TestHeldChaosKernelCount(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)
	reached := &fault.Plan{Seed: 23, Rates: map[fault.Site]float64{
		fault.KernelLaunch: 0.1, fault.PCIeCopy: 0.1, fault.IBSend: 0.1, fault.RDMAWrite: 0.1,
	}}
	for _, coll := range heldColls {
		for _, flat := range []bool{true, false} {
			cfg := heldConfig(4, 4, flat, 64<<10)
			clean, ck := heldRun(t, cfg, coll, dt, 2, false)
			for _, plan := range []*fault.Plan{fault.NewPlan(3, 0.03), reached} {
				cfg.Faults = plan
				got, k := heldRun(t, cfg, coll, dt, 2, false)
				if sumKernels(k) != sumKernels(ck) {
					t.Errorf("%s flat=%v: %d kernels under faults, %d clean", coll, flat, sumKernels(k), sumKernels(ck))
				}
				for r := range got {
					if !bytes.Equal(got[r], clean[r]) {
						t.Fatalf("%s flat=%v: rank %d's bytes differ under faults", coll, flat, r)
					}
				}
			}
		}
	}
}

// TestVArgsOutsideBuffer: a v-collective rejects a block outside its
// buffer before anything moves, naming the collective and the block;
// an empty block's displacement is never looked at. A datatype whose
// data reaches before its origin lies outside its buffer wherever the
// block starts.
func TestVArgsOutsideBuffer(t *testing.T) {
	dt := datatype.Float64
	calls := map[string]func(m *Rank, buf mem.Buffer, counts, displs []int){
		"Allgatherv": func(m *Rank, buf mem.Buffer, c, d []int) { m.Allgatherv(buf, c, d, dt) },
		"Alltoallv": func(m *Rank, buf mem.Buffer, c, d []int) {
			m.Alltoallv(buf, c, d, dt, buf, []int{1, 1, 1}, []int{0, 1, 2}, dt)
		},
		"Iallgatherv": func(m *Rank, buf mem.Buffer, c, d []int) { m.Iallgatherv(buf, c, d, dt) },
	}
	for name, call := range calls {
		for _, bad := range [][2]int{{1, -1}, {2, 7}} { // negative; the last element past the end
			func() {
				want := fmt.Sprintf("mpi: %s block 2 (count %d, displ %d) outside buffer of 64 bytes", name, bad[0], bad[1])
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Errorf("%s: panic %q, want %q", name, msg, want)
					}
				}()
				w := NewWorld(blockedConfig(1, 3, true))
				defer w.Close()
				w.Run(func(m *Rank) {
					// Block 1 is empty: its displacement may be anything.
					call(m, m.Malloc(64), []int{1, 0, bad[0]}, []int{0, -5, bad[1]})
				})
			}()
		}
	}
	before := datatype.Hindexed([]int{8}, []int64{-8}, datatype.Byte)
	want := "mpi: Alltoallv block 2 (count 1, displ 1) outside buffer of 64 bytes"
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("Alltoallv of %s: panic %q, want %q", before.Name(), msg, want)
		}
	}()
	w := NewWorld(blockedConfig(1, 3, true))
	defer w.Close()
	w.Run(func(m *Rank) {
		// Every rank sends rank 2 one element, eight bytes.
		rc := []int{0, 0, 0}
		if m.Rank() == 2 {
			rc = []int{8, 8, 8}
		}
		buf := m.Malloc(64)
		m.Alltoallv(buf, []int{0, 0, 1}, []int{0, -5, 1}, before, buf, rc, []int{0, 8, 16}, datatype.Byte)
	})
}
