package mpi

import (
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestMessageAllocs pins the heap objects one steady-state message
// costs, both ranks and every layer under them counted, on every path
// p2p_lat crosses: its three shapes on its three configurations, and
// T16K from host memory where a wire or a bus is crossed, plus a T145K
// rendezvous of four fragments over IB, and a T145K rendezvous from host
// memory on all three, whose producer and consumer pack on the CPU (the
// ring shared as it is over SM, the staged path over IB). Every one is
// 0: a message's records come from its world's free lists and go back
// once the last party naming them is done (DESIGN decision 26) — the
// send record, with its RTS and, for a rendezvous, the pipelined sender,
// its worker and staging processes and its packer's kernel record; the
// receive record with its process; the receiver half with its consumer's
// kernel records; and the process that returns a ring slot once its
// unpack is done — a future's waiters link through their processes, and
// an active message is a value. The counts are exact, so a row that
// moves fails: re-pin it and say why. Before the records were recycled,
// the first twelve rows cost 2, 2, 8, 2, 2, 5, 2, 2, 10, 2, 2 and 26
// (bounded there at 28): an eager message its two records; a T145K
// rendezvous its three, a one-shot pack and unpack kernel per fragment,
// on 1gpu and ib the ACK process with its closure and a second waiter on
// the unpack future (its waiter array), on ib the staging packer process
// with its closure.
func TestMessageAllocs(t *testing.T) {
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
		tun   *Tuning
	}{
		{"V1K.1gpu", "1gpu", v1k, false, nil},
		{"T16K.1gpu", "1gpu", t16k, false, nil},
		{"T145K.1gpu", "1gpu", t145k, false, nil},
		{"V1K.2gpu", "2gpu", v1k, false, nil},
		{"T16K.2gpu", "2gpu", t16k, false, nil},
		{"T145K.2gpu", "2gpu", t145k, false, nil},
		{"V1K.ib", "ib", v1k, false, nil},
		{"T16K.ib", "ib", t16k, false, nil},
		{"T145K.ib", "ib", t145k, false, nil},
		{"T16K.host.2gpu", "2gpu", t16k, true, nil},
		{"T16K.host.ib", "ib", t16k, true, nil},
		{"T145K.host.1gpu", "1gpu", t145k, true, nil},
		{"T145K.host.2gpu", "2gpu", t145k, true, nil},
		{"T145K.host.ib", "ib", t145k, true, nil},
		{"T145K.ib.4frag", "ib", t145k, false, &Tuning{FragBytes: t145k.Size() / 4}},
	} {
		if got := perMessage(tc.topo, tc.dt, tc.host, tc.tun); got != 0 {
			t.Errorf("%s: %.1f allocations per message, want 0", tc.point, got)
		}
	}
}
