package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// cpuPack is the reference packing.
var cpuPack = datatype.PackImage

// xfer runs a single Send/Recv between rank 0 and rank 1 with the given
// buffers/types and returns the packed images of both sides.
type xferSpec struct {
	cfg    Config
	sendDt *datatype.Datatype
	recvDt *datatype.Datatype
	count  int
	rcount int
	sGPU   bool // sender data on GPU
	rGPU   bool
}

func runXfer(t *testing.T, sp xferSpec) (sentPacked, recvPacked []byte, elapsed sim.Time) {
	t.Helper()
	if sp.rcount == 0 {
		sp.rcount = sp.count
	}
	if sp.recvDt == nil {
		sp.recvDt = sp.sendDt
	}
	w := NewWorld(sp.cfg)
	var sbuf, rbuf mem.Buffer
	var dur sim.Time
	w.Run(func(m *Rank) {
		switch m.Rank() {
		case 0:
			if sp.sGPU {
				sbuf = m.Malloc(sp.sendDt.Span(sp.count))
			} else {
				sbuf = m.MallocHost(sp.sendDt.Span(sp.count))
			}
			mem.FillPattern(sbuf, 99)
			m.Barrier()
			t0 := m.Now()
			m.Send(sbuf, sp.sendDt, sp.count, 1, 7)
			dur = m.Now() - t0
		case 1:
			if sp.rGPU {
				rbuf = m.Malloc(sp.recvDt.Span(sp.rcount))
			} else {
				rbuf = m.MallocHost(sp.recvDt.Span(sp.rcount))
			}
			mem.Fill(rbuf, 0)
			m.Barrier()
			m.Recv(rbuf, sp.recvDt, sp.rcount, 0, 7)
		}
	})
	elapsed = dur
	return cpuPack(sp.sendDt, sp.count, sbuf.Bytes()), cpuPack(sp.recvDt, sp.rcount, rbuf.Bytes()), elapsed
}

func twoRanksSameGPU() Config {
	return Config{Ranks: []Placement{{0, 0}, {0, 0}}}
}
func twoRanksTwoGPUs() Config {
	return Config{Ranks: []Placement{{0, 0}, {0, 1}}}
}
func twoNodes() Config {
	return Config{Ranks: []Placement{{0, 0}, {1, 0}}}
}

func TestEagerHostToHost(t *testing.T) {
	s, r, _ := runXfer(t, xferSpec{
		cfg:    twoRanksSameGPU(),
		sendDt: datatype.Contiguous(1000, datatype.Float64), // 8 KB: eager
		count:  1,
	})
	if !bytes.Equal(s, r) {
		t.Fatal("eager payload mismatch")
	}
}

func TestEagerGPUToGPU(t *testing.T) {
	s, r, _ := runXfer(t, xferSpec{
		cfg:    twoRanksTwoGPUs(),
		sendDt: shapes.SubMatrix(16, 16, 32), // 2 KB packed
		count:  1, sGPU: true, rGPU: true,
	})
	if !bytes.Equal(s, r) {
		t.Fatal("eager GPU payload mismatch")
	}
}

func rendezvousMatrix(t *testing.T, cfg Config, name string) {
	n := 512 // 2 MB matrix: rendezvous
	layouts := []struct {
		label string
		dt    *datatype.Datatype
	}{
		{"vector", shapes.SubMatrix(n/2, n/2, n)},
		{"triangular", shapes.LowerTriangular(n)},
		{"contiguous", shapes.FullMatrix(n)},
	}
	for _, l := range layouts {
		for _, loc := range []struct {
			label      string
			sGPU, rGPU bool
		}{
			{"g2g", true, true},
			{"g2h", true, false},
			{"h2g", false, true},
			{"h2h", false, false},
		} {
			t.Run(fmt.Sprintf("%s/%s/%s", name, l.label, loc.label), func(t *testing.T) {
				s, r, _ := runXfer(t, xferSpec{cfg: cfg, sendDt: l.dt, count: 1, sGPU: loc.sGPU, rGPU: loc.rGPU})
				if !bytes.Equal(s, r) {
					t.Fatal("payload mismatch")
				}
			})
		}
	}
}

func TestRendezvousSameGPU(t *testing.T) { rendezvousMatrix(t, twoRanksSameGPU(), "1gpu") }
func TestRendezvousTwoGPUs(t *testing.T) { rendezvousMatrix(t, twoRanksTwoGPUs(), "2gpu") }
func TestRendezvousIB(t *testing.T)      { rendezvousMatrix(t, twoNodes(), "ib") }

func TestVectorToContiguousReshape(t *testing.T) {
	// Fig. 11: sender vector, receiver contiguous (and the reverse).
	n := 512
	vec := shapes.SubMatrix(n, n/2, n)
	contig := datatype.Contiguous(n*n/2, datatype.Float64)
	for _, cfg := range []Config{twoRanksSameGPU(), twoRanksTwoGPUs(), twoNodes()} {
		s, r, _ := runXfer(t, xferSpec{cfg: cfg, sendDt: vec, recvDt: contig, count: 1, sGPU: true, rGPU: true})
		if !bytes.Equal(s, r) {
			t.Fatal("vector->contiguous mismatch")
		}
		s, r, _ = runXfer(t, xferSpec{cfg: cfg, sendDt: contig, recvDt: vec, count: 1, sGPU: true, rGPU: true})
		if !bytes.Equal(s, r) {
			t.Fatal("contiguous->vector mismatch")
		}
	}
}

func TestTransposeTransfer(t *testing.T) {
	n := 96
	s, r, _ := runXfer(t, xferSpec{
		cfg:    twoRanksTwoGPUs(),
		sendDt: shapes.Transpose(n),
		recvDt: shapes.FullMatrix(n),
		count:  1, sGPU: true, rGPU: true,
	})
	if !bytes.Equal(s, r) {
		t.Fatal("transpose transfer mismatch")
	}
}

func TestUnexpectedMessageAndWildcards(t *testing.T) {
	w := NewWorld(twoRanksSameGPU())
	var got []byte
	var want []byte
	w.Run(func(m *Rank) {
		if m.Rank() == 0 {
			buf := m.MallocHost(4096)
			mem.FillPattern(buf, 5)
			want = append([]byte(nil), buf.Bytes()...)
			m.Send(buf, datatype.Contiguous(4096, datatype.Byte), 1, 1, 42)
		} else {
			// Delay so the message is unexpected, then wildcard-receive.
			m.Proc().Sleep(5 * sim.Millisecond)
			buf := m.MallocHost(4096)
			m.Recv(buf, datatype.Contiguous(4096, datatype.Byte), 1, AnySource, AnyTag)
			got = append([]byte(nil), buf.Bytes()...)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatal("unexpected-path payload mismatch")
	}
}

func TestMessageOrderingSameTag(t *testing.T) {
	w := NewWorld(twoRanksSameGPU())
	var first, second byte
	w.Run(func(m *Rank) {
		dt := datatype.Contiguous(1024, datatype.Byte)
		if m.Rank() == 0 {
			a := m.MallocHost(1024)
			b := m.MallocHost(1024)
			mem.Fill(a, 0xAA)
			mem.Fill(b, 0xBB)
			m.Send(a, dt, 1, 1, 3)
			m.Send(b, dt, 1, 1, 3)
		} else {
			a := m.MallocHost(1024)
			b := m.MallocHost(1024)
			m.Recv(a, dt, 1, 0, 3)
			m.Recv(b, dt, 1, 0, 3)
			first, second = a.Bytes()[0], b.Bytes()[0]
		}
	})
	if first != 0xAA || second != 0xBB {
		t.Fatalf("messages reordered: %x %x", first, second)
	}
}

// TestPartialReceiveEager sends fewer bytes than the posted receive
// over the eager path: MPI permits it when the sender's signature is a
// prefix of the receiver's, and MPI_Get_count reports the true size.
func TestPartialReceiveEager(t *testing.T) {
	w := NewWorld(twoRanksSameGPU())
	var got, want []byte
	var recvd int64
	var count int
	w.Run(func(m *Rank) {
		full := datatype.Contiguous(1024, datatype.Byte)
		half := datatype.Contiguous(512, datatype.Byte)
		if m.Rank() == 0 {
			b := m.MallocHost(512)
			mem.FillPattern(b, 7)
			want = append([]byte(nil), b.Bytes()...)
			m.Send(b, half, 1, 1, 0)
		} else {
			b := m.MallocHost(1024)
			mem.Fill(b, 0xEE)
			r := m.Irecv(b, full, 1, 0, 0)
			r.Wait(m.Proc())
			got = append([]byte(nil), b.Bytes()...)
			recvd = r.ReceivedBytes()
			count = r.GetCount(datatype.Contiguous(1, datatype.Byte))
		}
	})
	if !bytes.Equal(got[:512], want) {
		t.Fatal("partial payload mismatch")
	}
	for i := 512; i < 1024; i++ {
		if got[i] != 0xEE {
			t.Fatalf("byte %d beyond the message was written", i)
		}
	}
	if recvd != 512 || count != 512 {
		t.Fatalf("ReceivedBytes/GetCount = %d/%d, want 512/512", recvd, count)
	}
}

// TestPartialReceiveRendezvous ends a rendezvous message mid-way through
// a non-contiguous GPU receive layout, exercising the incremental
// unpack paths on every topology.
func TestPartialReceiveRendezvous(t *testing.T) {
	const sentElems = 75_000 // 600 KB: rendezvous, ends mid-layout
	sendDt := datatype.Contiguous(sentElems, datatype.Float64)
	recvDt := shapes.SubMatrix(512, 256, 512) // 1 MB packed
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"1gpu", twoRanksSameGPU()},
		{"2gpu", twoRanksTwoGPUs()},
		{"ib", twoNodes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(tc.cfg)
			var sent, got []byte
			var recvd int64
			w.Run(func(m *Rank) {
				if m.Rank() == 0 {
					b := m.Malloc(sendDt.Size())
					mem.FillPattern(b, 31)
					sent = append([]byte(nil), b.Bytes()...)
					m.Send(b, sendDt, 1, 1, 0)
				} else {
					b := m.Malloc(recvDt.Span(1))
					mem.Fill(b, 0)
					r := m.Irecv(b, recvDt, 1, 0, 0)
					r.Wait(m.Proc())
					recvd = r.ReceivedBytes()
					got = cpuPack(recvDt, 1, b.Bytes())
				}
			})
			if recvd != sendDt.Size() {
				t.Fatalf("ReceivedBytes = %d, want %d", recvd, sendDt.Size())
			}
			if !bytes.Equal(got[:len(sent)], sent) {
				t.Fatal("partial rendezvous payload mismatch")
			}
			for i := len(sent); i < len(got); i++ {
				if got[i] != 0 {
					t.Fatalf("packed byte %d beyond the message was written", i)
				}
			}
		})
	}
}

// TestSignatureMismatchPanics keeps the fatal path: a shorter message
// whose primitives do not prefix the receiver's signature is an error,
// not a partial receive.
func TestSignatureMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no signature-mismatch panic")
		}
	}()
	w := NewWorld(twoRanksSameGPU())
	w.Run(func(m *Rank) {
		if m.Rank() == 0 {
			m.Send(m.MallocHost(80), datatype.Contiguous(10, datatype.Float64), 1, 1, 0)
		} else {
			// 100 bytes posted: not the same packed size and float64 is
			// not a prefix of a byte sequence.
			m.Recv(m.MallocHost(100), datatype.Contiguous(100, datatype.Byte), 1, 0, 0)
		}
	})
}

// TestNonOvertakingWildcards checks MPI's non-overtaking rule under
// AnySource/AnyTag: matching must follow per-source send order even
// when message sizes make later messages complete faster, on both the
// unexpected-queue path (sends land first) and the posted-queue path
// (receives posted first).
func TestNonOvertakingWildcards(t *testing.T) {
	const big = 256 << 10 // rendezvous
	const small = 4 << 10 // eager
	dtBig := datatype.Contiguous(big, datatype.Byte)
	dtSmall := datatype.Contiguous(small, datatype.Byte)
	for _, tc := range []struct {
		name        string
		recvDelayed bool // receiver posts after arrivals queue as unexpected
	}{
		{"unexpected-queue", true},
		{"posted-queue", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld(Config{Ranks: []Placement{{0, 0}, {0, 0}, {0, 1}}})
			var order []byte
			var sizes []int64
			w.Run(func(m *Rank) {
				switch m.Rank() {
				case 1, 2:
					// Each sender: a slow rendezvous message then a fast
					// eager one, same tag.
					a := m.MallocHost(big)
					b := m.MallocHost(small)
					mem.Fill(a, byte(0xA0+m.Rank()))
					mem.Fill(b, byte(0xB0+m.Rank()))
					m.Send(a, dtBig, 1, 0, 9)
					m.Send(b, dtSmall, 1, 0, 9)
				case 0:
					if tc.recvDelayed {
						m.Proc().Sleep(50 * sim.Millisecond)
					}
					for i := 0; i < 4; i++ {
						buf := m.MallocHost(big)
						r := m.Irecv(buf, dtBig, 1, AnySource, AnyTag)
						r.Wait(m.Proc())
						order = append(order, buf.Bytes()[0])
						sizes = append(sizes, r.ReceivedBytes())
					}
				}
			})
			// Per source, the big message must match before the small one.
			seen := map[byte]int{}
			for i, b := range order {
				seen[b] = i
			}
			for _, src := range []byte{1, 2} {
				bigAt, bigOK := seen[0xA0+src]
				smallAt, smallOK := seen[0xB0+src]
				if !bigOK || !smallOK {
					t.Fatalf("missing messages from rank %d: order %x", src, order)
				}
				if bigAt > smallAt {
					t.Errorf("rank %d's messages overtook: order %x sizes %v", src, order, sizes)
				}
			}
		})
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	w := NewWorld(twoRanksTwoGPUs())
	dt := shapes.FullMatrix(512)
	ok := true
	w.Run(func(m *Rank) {
		buf := m.Malloc(dt.Span(1))
		peer := 1 - m.Rank()
		s := m.Isend(buf, dt, 1, peer, 1)
		r := m.Irecv(m.Malloc(dt.Span(1)), dt, 1, peer, 1)
		s.Wait(m.Proc())
		r.Wait(m.Proc())
		if !s.Done() || !r.Done() {
			ok = false
		}
	})
	if !ok {
		t.Fatal("requests not complete after Wait")
	}
}

func TestTruncationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no truncation panic")
		}
	}()
	w := NewWorld(twoRanksSameGPU())
	w.Run(func(m *Rank) {
		dt := datatype.Contiguous(1024, datatype.Byte)
		small := datatype.Contiguous(512, datatype.Byte)
		if m.Rank() == 0 {
			m.Send(m.MallocHost(1024), dt, 1, 1, 0)
		} else {
			m.Recv(m.MallocHost(512), small, 1, 0, 0)
		}
	})
}

func TestOneGPUFasterThanTwoGPUs(t *testing.T) {
	dt := shapes.SubMatrix(1024, 1024, 2048) // 8 MB packed
	_, _, one := runXfer(t, xferSpec{cfg: twoRanksSameGPU(), sendDt: dt, count: 1, sGPU: true, rGPU: true})
	_, _, two := runXfer(t, xferSpec{cfg: twoRanksTwoGPUs(), sendDt: dt, count: 1, sGPU: true, rGPU: true})
	if two < 2*one {
		t.Fatalf("1GPU (%v) should be at least 2x faster than 2GPU (%v)", one, two)
	}
}

func TestPipelineApproachesPCIeBandwidth(t *testing.T) {
	// Fig. 9's premise: the pipelined protocol should push a large vector
	// near the PCIe bandwidth between two GPUs. Run a few iterations so
	// the DEV cache and IPC mappings are warm.
	n := 2048
	dt := shapes.SubMatrix(n, n, n) // 32 MB
	w := NewWorld(twoRanksTwoGPUs())
	var per sim.Time
	iters := 4
	w.Run(func(m *Rank) {
		span := dt.Span(1)
		buf := m.Malloc(span)
		if m.Rank() == 0 {
			m.Barrier()
			for i := 0; i < iters+1; i++ {
				if i == 1 {
					per = m.Now() // skip warmup iteration
				}
				m.Send(buf, dt, 1, 1, i)
			}
			per = (m.Now() - per) / sim.Time(iters)
		} else {
			m.Barrier()
			for i := 0; i < iters+1; i++ {
				m.Recv(buf, dt, 1, 0, i)
			}
		}
	})
	bw := sim.GBps(dt.Size(), per)
	peer := 10.5 * 10 / 10.5 // bottleneck is the slot link at 10.5, root not involved for P2P
	if bw < 0.80*peer {
		t.Fatalf("pipelined vector bandwidth %.2f GB/s, want >= 80%% of %v", bw, peer)
	}
	t.Logf("P2P pipelined vector bandwidth: %.2f GB/s (%.0f%% of peak)", bw, 100*bw/10.5)
}

func TestIBPipelineApproachesWire(t *testing.T) {
	n := 2048
	dt := shapes.SubMatrix(n, n, n)
	w := NewWorld(twoNodes())
	var per sim.Time
	iters := 4
	w.Run(func(m *Rank) {
		buf := m.Malloc(dt.Span(1))
		if m.Rank() == 0 {
			m.Barrier()
			for i := 0; i < iters+1; i++ {
				if i == 1 {
					per = m.Now()
				}
				m.Send(buf, dt, 1, 1, i)
			}
			per = (m.Now() - per) / sim.Time(iters)
		} else {
			m.Barrier()
			for i := 0; i < iters+1; i++ {
				m.Recv(buf, dt, 1, 0, i)
			}
		}
	})
	bw := sim.GBps(dt.Size(), per)
	if bw < 0.80*6.0 {
		t.Fatalf("IB pipelined vector bandwidth %.2f GB/s, want >= 80%% of 6", bw)
	}
	t.Logf("IB pipelined vector bandwidth: %.2f GB/s", bw)
}

func TestDirectRemoteUnpackSlower(t *testing.T) {
	dt := shapes.LowerTriangular(1536)
	staged := xferSpec{cfg: twoRanksTwoGPUs(), sendDt: dt, count: 1, sGPU: true, rGPU: true}
	direct := staged
	direct.cfg.Tuning = &Tuning{DirectRemoteUnpack: true}
	_, _, ts := runXfer(t, staged)
	_, _, td := runXfer(t, direct)
	if td <= ts {
		t.Fatalf("direct remote unpack (%v) should be slower than staged (%v)", td, ts)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(Config{Ranks: []Placement{{0, 0}, {0, 0}, {0, 0}}})
	var times [3]sim.Time
	w.Run(func(m *Rank) {
		m.Proc().Sleep(sim.Time(m.Rank()) * sim.Millisecond)
		m.Barrier()
		times[m.Rank()] = m.Now()
	})
	for r := 1; r < 3; r++ {
		if times[r] < 2*sim.Millisecond {
			t.Fatalf("rank %d left barrier at %v before the slowest rank entered", r, times[r])
		}
	}
}
