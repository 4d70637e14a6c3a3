package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestExtremeTuning drives the protocols far from their defaults: tiny
// fragments cycling through the ring's slots, fragments that split
// elements, one-byte eager limit. The 148 224-byte triangle is 37
// fragments of 4 KiB, 145 of 1 KiB.
func TestExtremeTuning(t *testing.T) {
	dt := shapes.LowerTriangular(192)
	for i, tun := range []Tuning{
		{FragBytes: 1 << 10},
		{FragBytes: 4096},
		{FragBytes: 4096, DirectRemoteUnpack: true},
		{Eager: Eager(1)},       // everything rendezvous
		{Eager: Eager(1 << 30)}, // everything eager
		{FragBytes: 1 << 26},    // one fragment for the whole message
		{FragBytes: 3000},       // fragment edges inside elements
	} {
		tun := tun
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
				cfg.Tuning = &tun
				s, r, _ := runXfer(t, xferSpec{cfg: cfg, sendDt: dt, count: 1, sGPU: true, rGPU: true})
				if !bytes.Equal(s, r) {
					t.Fatal("payload mismatch")
				}
			}
		})
	}
}

// TestManyConcurrentMessages floods a pair of ranks with interleaved
// rendezvous and eager messages on distinct tags, completing out of
// issue order.
func TestManyConcurrentMessages(t *testing.T) {
	const nmsg = 12
	w := NewWorld(twoRanksTwoGPUs())
	sizes := make([]int64, nmsg)
	for i := range sizes {
		if i%2 == 0 {
			sizes[i] = 4 << 10 // eager
		} else {
			sizes[i] = int64(256<<10 + i*4096) // rendezvous
		}
	}
	var sent, got [nmsg][]byte
	w.Run(func(m *Rank) {
		bufs := make([]mem.Buffer, nmsg)
		reqs := make([]*Request, nmsg)
		for i := range bufs {
			bufs[i] = m.Malloc(sizes[i])
		}
		if m.Rank() == 0 {
			for i := range bufs {
				mem.FillPattern(bufs[i], uint64(i+1))
				sent[i] = append([]byte(nil), bufs[i].Bytes()...)
				reqs[i] = m.Isend(bufs[i], datatype.Contiguous(int(sizes[i]), datatype.Byte), 1, 1, i)
			}
		} else {
			// Post receives in reverse order: matching is by tag.
			for i := nmsg - 1; i >= 0; i-- {
				reqs[i] = m.Irecv(bufs[i], datatype.Contiguous(int(sizes[i]), datatype.Byte), 1, 0, i)
			}
		}
		for i := range reqs {
			reqs[i].Wait(m.Proc())
		}
		if m.Rank() == 1 {
			for i := range bufs {
				got[i] = append([]byte(nil), bufs[i].Bytes()...)
			}
		}
	})
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

// TestBidirectionalSimultaneousRendezvous exchanges large messages both
// ways at once (the ping-ping pattern), which stresses concurrent
// sender and receiver state machines on the same rank.
func TestBidirectionalSimultaneousRendezvous(t *testing.T) {
	dt := shapes.SubMatrix(512, 512, 600)
	for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
		w := NewWorld(cfg)
		var img [2][]byte
		var got [2][]byte
		w.Run(func(m *Rank) {
			span := dt.Span(1)
			mine := m.Malloc(span)
			theirs := m.Malloc(span)
			mem.FillPattern(mine, uint64(m.Rank()+40))
			img[m.Rank()] = cpuPack(dt, 1, mine.Bytes())
			peer := 1 - m.Rank()
			s := m.Isend(mine, dt, 1, peer, 5)
			r := m.Irecv(theirs, dt, 1, peer, 5)
			s.Wait(m.Proc())
			r.Wait(m.Proc())
			got[peer] = cpuPack(dt, 1, theirs.Bytes())
		})
		for r := 0; r < 2; r++ {
			if !bytes.Equal(img[r], got[r]) {
				t.Fatalf("bidirectional exchange corrupted rank %d's data", r)
			}
		}
	}
}

// TestScratchPoolBounded: a rank's staging is one pool of power-of-two
// size classes per memory space, and nothing in it is evicted — its
// arena is a bump allocator, so an evicted buffer would strand its
// range until the world closed. A request takes a buffer of its own
// class: a small one never spends a big buffer given back, and a big
// one reuses it. And staging held together in bursts, taken by hand or
// by a collective, needs no more of the arena's backing on the last
// round than on the first: a pool that dropped a buffer would strand its
// range, and bursts like these ran the arena out of memory (the hand-made
// ones near round 63).
func TestScratchPoolBounded(t *testing.T) {
	t.Run("classes", func(t *testing.T) {
		w := NewWorld(twoRanksTwoGPUs())
		defer w.Close()
		w.Run(func(m *Rank) {
			if m.Rank() != 0 {
				return
			}
			const big = 32 << 20
			bigBuf := m.ScratchHost(big)
			m.FreeScratchHost(bigBuf)
			small := m.ScratchHost(4 << 10)
			if small.Addr() == bigBuf.Addr() {
				t.Errorf("a 4 KiB request took the pooled %d-byte buffer", int64(big))
			}
			reuse := m.ScratchHost(big)
			if reuse.Space() != bigBuf.Space() || reuse.Addr() != bigBuf.Addr() {
				t.Error("a big request did not reuse the pooled big buffer")
			}
			m.FreeScratchHost(small)
			m.FreeScratchHost(reuse)
		})
		checkQuiescent(t, w, "classes")
	})

	t.Run("bursts", func(t *testing.T) {
		w := NewWorld(twoRanksTwoGPUs())
		defer w.Close()
		var first, last int64
		w.Run(func(m *Rank) {
			if m.Rank() != 0 {
				return
			}
			for i := range 100 {
				held := []mem.Buffer{m.ScratchHost(16 << 20), m.ScratchHost(16 << 20), m.ScratchHost(64 << 10)}
				for _, b := range held {
					m.FreeScratchHost(b)
				}
				if i == 0 {
					first = m.Staging().UsedBacking()
				}
			}
			last = m.Staging().UsedBacking()
		})
		checkQuiescent(t, w, "bursts")
		if last != first {
			t.Errorf("the arena backs %d bytes after 100 bursts, %d after the first", last, first)
		}
	})

	t.Run("alltoall", func(t *testing.T) {
		w := NewWorld(blockedConfig(2, 4, false))
		defer w.Close()
		if !w.TopologyAware() {
			t.Fatal("the world runs a flat Alltoall; the leader stages nothing")
		}
		const block, reps = 256 << 10, 8
		var first, last int64
		w.Run(func(m *Rank) {
			n := int64(m.Size()) * block
			send, recv := m.Malloc(n), m.Malloc(n)
			for rep := range reps {
				m.Alltoall(send, datatype.Byte, block, recv, datatype.Byte, block)
				m.Barrier()
				if m.Rank() == 0 && rep == 0 {
					first = m.Staging().UsedBacking()
				}
			}
			if m.Rank() == 0 {
				last = m.Staging().UsedBacking()
			}
		})
		checkQuiescent(t, w, "alltoall")
		if last != first {
			t.Errorf("the leader's arena backs %d bytes after %d repetitions, %d after the first", last, reps, first)
		}
	})
}

// TestSelfSend exercises rank-to-self messaging.
func TestSelfSend(t *testing.T) {
	w := NewWorld(Config{Ranks: []Placement{{Node: 0, GPU: 0}}})
	dt := datatype.Contiguous(200000, datatype.Float64)
	ok := false
	w.Run(func(m *Rank) {
		a := m.Malloc(dt.Size())
		b := m.Malloc(dt.Size())
		mem.FillPattern(a, 3)
		s := m.Isend(a, dt, 1, 0, 0)
		r := m.Irecv(b, dt, 1, 0, 0)
		s.Wait(m.Proc())
		r.Wait(m.Proc())
		ok = mem.Equal(a, b)
	})
	if !ok {
		t.Fatal("self send corrupted data")
	}
}
