package mpi

import (
	"sync"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestMessageAllocs pins the heap objects one steady-state message
// costs, both ranks and every layer under them counted, on every path
// p2p_lat crosses: its three shapes on its three configurations, and
// T16K from host memory where a wire or a bus is crossed. A message is
// one record per side (DESIGN decision 28): the send record, holding its
// RTS and, for a rendezvous, the pipelined sender with its worker process
// and its packer; the receive record, holding the receive process; and
// for a rendezvous the receiver half made at the match, holding its
// consumer. A whole-message pack or unpack launches from the kernel
// record of the worker it borrows, and an active message is a value. So
// an eager message, device or host, is its two records. A T145K
// rendezvous is its three records plus a one-shot pack and unpack
// kernel (one fragment each way); 1gpu and ib add the ACK process with
// its closure and a second waiter on the unpack future (its waiter
// array), ib the staging packer process with its closure. The counts are
// exact, so a row that moves either way fails: re-pin it and say why. At
// the commit before, the rows cost 6, 6, 14, 6, 6, 11, 6, 6, 16, 4 and 4
// (four fragments: 32): each message also paid the receive process and
// its closure, an eager one its two kernels, a rendezvous the sender
// worker process and its closure and two Packers.
func TestMessageAllocs(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what it is
	// given, and a kernel whose descriptor array was dropped makes one.
	var pool sync.Pool
	for i, x := 0, new(int); i < 64; i++ {
		pool.Put(x)
		if pool.Get() == nil {
			t.Skip("sync.Pool is dropping (-race): allocation counts are not exact")
		}
	}
	v1k, t16k, t145k := shapes.SubMatrix(16, 8, 12), shapes.LowerTriangular(64), shapes.LowerTriangular(192)
	topos := map[string]func() Config{"1gpu": twoRanksSameGPU, "2gpu": twoRanksTwoGPUs, "ib": twoNodes}
	perMessage := func(topo string, dt *datatype.Datatype, host bool, tun *Tuning) float64 {
		const warm, runs = 4, 50
		var got float64
		cfg := topos[topo]()
		cfg.Tuning = tun
		w := NewWorld(cfg)
		w.Run(func(m *Rank) {
			var buf mem.Buffer
			if host {
				buf = m.MallocHost(dt.Span(1))
			} else {
				buf = m.Malloc(dt.Span(1))
			}
			peer := 1 - m.Rank()
			if m.Rank() == 1 {
				for i := 0; i < warm+runs+1; i++ {
					m.Recv(buf, dt, 1, peer, 0)
					m.Send(buf, dt, 1, peer, 1)
				}
				return
			}
			roundTrip := func() {
				m.Send(buf, dt, 1, peer, 0)
				m.Recv(buf, dt, 1, peer, 1)
			}
			for i := 0; i < warm; i++ {
				roundTrip()
			}
			got = testing.AllocsPerRun(runs, roundTrip) / 2
		})
		w.Close()
		return got
	}
	for _, tc := range []struct {
		point string
		topo  string
		dt    *datatype.Datatype
		host  bool
		want  float64
	}{
		{"V1K.1gpu", "1gpu", v1k, false, 2},
		{"T16K.1gpu", "1gpu", t16k, false, 2},
		{"T145K.1gpu", "1gpu", t145k, false, 8},
		{"V1K.2gpu", "2gpu", v1k, false, 2},
		{"T16K.2gpu", "2gpu", t16k, false, 2},
		{"T145K.2gpu", "2gpu", t145k, false, 5},
		{"V1K.ib", "ib", v1k, false, 2},
		{"T16K.ib", "ib", t16k, false, 2},
		{"T145K.ib", "ib", t145k, false, 10},
		{"T16K.host.2gpu", "2gpu", t16k, true, 2},
		{"T16K.host.ib", "ib", t16k, true, 2},
	} {
		if got := perMessage(tc.topo, tc.dt, tc.host, nil); got != tc.want {
			t.Errorf("%s: %.1f allocations per message, want %.0f", tc.point, got, tc.want)
		}
	}

	// A rendezvous of four fragments costs what one of one does plus, per
	// extra fragment, at most perFrag objects: its pack and unpack kernel
	// launches, the ACK process with its closure, and a share of the ACK
	// and staging queues' arrays, which a message deeper than one
	// fragment fills past their inline element.
	const perFrag = 6
	one := perMessage("ib", t145k, false, nil)
	four := perMessage("ib", t145k, false, &Tuning{FragBytes: t145k.Size() / 4})
	if four > one+3*perFrag {
		t.Errorf("4-fragment rendezvous: %.1f allocations per message, want at most %.0f (one fragment: %.1f)", four, one+3*perFrag, one)
	}
}
