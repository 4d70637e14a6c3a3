package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// Tests of Group.NeighborAlltoallw, the neighbourhood exchange of coll.go.

// haloRing runs one dimension of a halo exchange on a ring of n ranks:
// every rank owns a rows x 4 array of doubles whose columns 1 and 2 go
// to the ranks below and above and whose columns 0 and 3 are filled by
// them. exchange moves the four faces; the result is every rank's whole
// array, gaps and all, and the kernels its GPU ran.
func haloRing(t *testing.T, n, rows int, host bool, eager int64,
	exchange func(g *Group, m *Rank, buf mem.Buffer, face [4]*datatype.Datatype, down, up int)) ([][]byte, []int64) {
	t.Helper()
	cfg := heldConfig(2, n/2, true, eager)
	w := NewWorld(cfg)
	defer w.Close()
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = n - 1 - i // group order is not world order
	}
	g := w.NewGroup(ranks)
	padded := []int{rows, 4}
	var face [4]*datatype.Datatype
	for col := range face {
		face[col] = shapes.HaloFace(padded, 1, col)
	}
	imgs, kernels := make([][]byte, n), make([]int64, n)
	w.Run(func(m *Rank) {
		buf := m.Malloc(int64(rows) * 4 * 8)
		if host {
			buf = m.MallocHost(buf.Len())
		}
		mem.FillPattern(buf, uint64(4400+m.Rank()))
		me := g.LocalRank(m)
		before := m.Engine().Device().KernelsRun()
		exchange(g, m, buf, face, (me-1+n)%n, (me+1)%n)
		kernels[m.Rank()] = m.Engine().Device().KernelsRun() - before
		imgs[m.Rank()] = append([]byte(nil), buf.Bytes()...)
	})
	checkQuiescent(t, w, "halo ring")
	return imgs, kernels
}

// neighborExchange is the exchange as one NeighborAlltoallw, with an
// empty block on either side that names no memory, no type and no peer
// of the group.
func neighborExchange(g *Group, m *Rank, buf mem.Buffer, face [4]*datatype.Datatype, down, up int) {
	g.NeighborAlltoallw(m,
		[]Neighbor{{Buf: buf, Dt: face[1], Count: 1, Peer: down}, {Peer: -7}, {Buf: buf, Dt: face[2], Count: 1, Peer: up}},
		[]Neighbor{{Peer: 99}, {Buf: buf, Dt: face[3], Count: 1, Peer: up}, {Buf: buf, Dt: face[0], Count: 1, Peer: down}})
}

// sendRecvExchange is the same four faces as two SendRecvLocal calls.
func sendRecvExchange(g *Group, m *Rank, buf mem.Buffer, face [4]*datatype.Datatype, down, up int) {
	g.SendRecvLocal(m, buf, face[1], 1, down, buf, face[3], 1, up)
	g.SendRecvLocal(m, buf, face[2], 1, up, buf, face[0], 1, down)
}

// TestNeighborDifferential: the neighbourhood exchange leaves every byte
// of every rank's array as the sequence of SendRecvLocal leaves it, for
// faces that are held (2 592 B), eager but too large for a hold to pay
// (20 000 B) and eight bytes past the eager limit, in device and in host
// memory, with two ranks in the dimension (the same peer on both sides)
// and with four. Only the held faces change what a rank launches.
func TestNeighborDifferential(t *testing.T) {
	const eager = 64 << 10
	for _, rows := range []int{2592 / 8, 20000 / 8, (eager + 8) / 8} {
		for _, host := range []bool{false, true} {
			for _, n := range []int{2, 4} {
				what := fmt.Sprintf("faces of %d B, host=%v, %d ranks", rows*8, host, n)
				want, perMessage := haloRing(t, n, rows, host, eager, sendRecvExchange)
				got, k := haloRing(t, n, rows, host, eager, neighborExchange)
				for r := range want {
					if !bytes.Equal(got[r], want[r]) {
						t.Errorf("%s: rank %d's array differs from the SendRecvLocal sequence's", what, r)
					}
					wantK := perMessage[r]
					if !host && rows*8 == 2592 {
						wantK = 2 // one fused pack, one fused unpack
					}
					if k[r] != wantK {
						t.Errorf("%s: rank %d launched %d kernels, want %d", what, r, k[r], wantK)
					}
				}
			}
		}
	}
}

// TestNeighborBlockSizeMismatch: a peer whose block is eight bytes
// shorter than the window posted for it fails the exchange by name,
// held (as bytes, where the point-to-point layer sees a legal partial
// receive) or not; eight bytes longer is the point-to-point layer's
// truncation.
func TestNeighborBlockSizeMismatch(t *testing.T) {
	for _, cells := range []int{64, 4096} { // held; too large for a hold to pay
		for _, tc := range []struct {
			delta int
			want  string
		}{{-1, "mpi: group NeighborAlltoallw: rank"}, {+1, "mpi: truncation"}} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
						t.Errorf("%d cells, a block %+d off: panic %q, want %q", cells, tc.delta, msg, tc.want)
					}
				}()
				w := NewWorld(blockedConfig(1, 2, true))
				defer w.Close()
				g := w.NewGroup([]int{0, 1})
				w.Run(func(m *Rank) {
					peer := 1 - m.Rank()
					sbuf, rbuf := m.Malloc(int64(4*cells+8)*8), m.Malloc(int64(4*cells+8)*8)
					half := int64(2*cells+4) * 8
					n := cells
					if m.Rank() == 0 {
						n += tc.delta
					}
					g.NeighborAlltoallw(m,
						[]Neighbor{{Buf: sbuf, Dt: datatype.Float64, Count: cells, Peer: peer}, {Buf: sbuf.Slice(half, half), Dt: datatype.Float64, Count: n, Peer: peer}},
						[]Neighbor{{Buf: rbuf, Dt: datatype.Float64, Count: cells, Peer: peer}, {Buf: rbuf.Slice(half, half), Dt: datatype.Float64, Count: cells, Peer: peer}})
				})
			}()
		}
	}
}

// TestNeighborArgs: a bad block fails at the call, before anything
// moves, with the call, the side and the block named; an empty block is
// never looked at (neighborExchange passes two).
func TestNeighborArgs(t *testing.T) {
	face := shapes.HaloFace([]int{8, 4}, 1, 3) // spans 8 rows of 4 doubles: 232 bytes from the origin
	for _, tc := range []struct {
		bad  Neighbor
		want string
	}{
		{Neighbor{Dt: datatype.Float64, Count: 1, Peer: 9}, "(count 1, peer 9) names a peer outside the group of 3"},
		{Neighbor{Dt: datatype.Float64, Count: 1, Peer: -1}, "(count 1, peer -1) names a peer outside the group of 3"},
		{Neighbor{Dt: datatype.Float64, Count: -2, Peer: 1}, "(count -2, peer 1) has a negative count"},
		{Neighbor{Count: 1, Peer: 1}, "(count 1, peer 1) has no datatype"},
		{Neighbor{Dt: face, Count: 1, Peer: 1}, "(count 1, peer 1) lies outside its buffer of 248 bytes"},
		{Neighbor{Dt: datatype.Float64, Count: 32, Peer: 1}, "(count 32, peer 1) lies outside its buffer of 248 bytes"},
	} {
		for _, side := range []string{"send", "recv"} {
			func() {
				want := "mpi: group NeighborAlltoallw " + side + " block 1 " + tc.want
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Errorf("panic %q, want %q", msg, want)
					}
				}()
				w := NewWorld(blockedConfig(1, 3, true))
				defer w.Close()
				g := w.NewGroup([]int{0, 1, 2})
				w.Run(func(m *Rank) {
					buf := m.Malloc(256)
					tc.bad.Buf = buf.Slice(8, 248)
					ok := []Neighbor{{Buf: buf, Dt: datatype.Float64, Count: 1, Peer: 1}, {Buf: buf, Dt: datatype.Float64, Count: 1, Peer: 2}}
					bad := []Neighbor{ok[0], tc.bad}
					if side == "send" {
						g.NeighborAlltoallw(m, bad, ok)
					} else {
						g.NeighborAlltoallw(m, ok, bad)
					}
				})
			}()
		}
	}
}

// TestHoldByCostAlltoall pins the hold rule by the path it takes: the
// flat 16-rank Alltoall holds blocks of 16 KiB (one fused pack, one
// fused unpack per rank) and moves blocks of 32 KiB message by message —
// eager-sized too, but sixteen of them cost more to stage than fifteen
// launches cost to make.
func TestHoldByCostAlltoall(t *testing.T) {
	for _, tc := range []struct {
		rows    int // of 16 doubles, in rows of 24
		kernels int64
	}{{128, 2}, {256, 2 * 16}} {
		dt := shapes.SubMatrix(tc.rows, 16, 24)
		_, k := heldRun(t, heldConfig(4, 4, true, 64<<10), "alltoall", dt, 1, false)
		for r, n := range k {
			if n != tc.kernels {
				t.Errorf("blocks of %d B: rank %d launched %d kernels, want %d", dt.Size(), r, n, tc.kernels)
			}
		}
	}
}

// TestHoldTwoDevices: a rank that owns two GPUs and gives the exchange
// eager-sized blocks on both holds the blocks of one device — the first
// block's: a fused kernel addresses one memory space — and leaves the
// other's to the per-message path. Every received byte is what one
// SendRecvLocal per block leaves, with one block on each device (nothing
// left to fuse) and with two on device 0 and one on device 1 (device 0
// runs one pack and one unpack per rank where it ran two of each).
func TestHoldTwoDevices(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12) // 1 KiB packed
	run := func(devs []int, exchange func(g *Group, m *Rank, sends, recvs []Neighbor)) ([][]byte, int64) {
		w := NewWorld(Config{GPUsPerNode: 2, Ranks: []Placement{{GPU: 0}, {GPU: 1}}})
		defer w.Close()
		g := w.NewGroup([]int{0, 1})
		imgs := make([][]byte, 2)
		w.Run(func(m *Rank) {
			var sends, recvs []Neighbor
			for i, dev := range devs {
				send, recv := m.Ctx().Malloc(dev, dt.Span(1)), m.Ctx().Malloc(dev, dt.Span(1))
				mem.FillPattern(send, uint64(7700+10*m.Rank()+i))
				sends = append(sends, Neighbor{Buf: send, Dt: dt, Count: 1, Peer: 1 - m.Rank()})
				recvs = append(recvs, Neighbor{Buf: recv, Dt: dt, Count: 1, Peer: 1 - m.Rank()})
			}
			exchange(g, m, sends, recvs)
			for _, r := range recvs {
				imgs[m.Rank()] = append(imgs[m.Rank()], r.Buf.Bytes()...)
			}
		})
		checkQuiescent(t, w, "two devices")
		return imgs, w.Node(0).GPU(0).KernelsRun()
	}
	perMessage := func(g *Group, m *Rank, sends, recvs []Neighbor) {
		for i, s := range sends {
			r := recvs[i]
			g.SendRecvLocal(m, s.Buf, s.Dt, s.Count, s.Peer, r.Buf, r.Dt, r.Count, r.Peer)
		}
	}
	for _, devs := range [][]int{{0, 1}, {0, 1, 0}} {
		want, wantK := run(devs, perMessage)
		got, k := run(devs, func(g *Group, m *Rank, sends, recvs []Neighbor) { g.NeighborAlltoallw(m, sends, recvs) })
		for r := range want {
			if !bytes.Equal(got[r], want[r]) {
				t.Errorf("blocks on devices %v: rank %d received other bytes than one SendRecvLocal per block", devs, r)
			}
		}
		if len(devs) == 3 {
			wantK = 4 // either rank: one fused pack, one fused unpack
		}
		if k != wantK {
			t.Errorf("blocks on devices %v: device 0 ran %d kernels, want %d", devs, k, wantK)
		}
	}
}
