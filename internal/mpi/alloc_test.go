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
// T16K from host memory where a wire or a bus is crossed. Each layer's
// share of a message is one record — a request with its operation and
// RTS, the pipelined strategy's sender half inside the send's
// operation, its receiver half one record per match, a kernel with its
// launch and completion, a packer with its converter borrowed from the
// engine — and an active message is a value; what is left is named in
// DESIGN decision 26. The counts are exact, so a row that moves either
// way fails: re-pin it and say why. At the commit before, the rows cost
// 8, 8, 32, 8, 8, 29, 9, 9, 41, 6 and 7 (four fragments: 78); at the one
// before that, the device eager, host eager and ib rendezvous rows cost
// 29.5, 15.5 and 68.5.
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
		{"V1K.1gpu", "1gpu", v1k, false, 6},
		{"T16K.1gpu", "1gpu", t16k, false, 6},
		{"T145K.1gpu", "1gpu", t145k, false, 14},
		{"V1K.2gpu", "2gpu", v1k, false, 6},
		{"T16K.2gpu", "2gpu", t16k, false, 6},
		{"T145K.2gpu", "2gpu", t145k, false, 11},
		{"V1K.ib", "ib", v1k, false, 6},
		{"T16K.ib", "ib", t16k, false, 6},
		{"T145K.ib", "ib", t145k, false, 16},
		{"T16K.host.2gpu", "2gpu", t16k, true, 4},
		{"T16K.host.ib", "ib", t16k, true, 4},
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
