package mpi

import (
	"sync"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestMessageAllocs pins the heap objects one steady-state message
// costs, both ranks and every layer under them counted: each layer's
// share of a message is one record (a request with its operation, a
// kernel with its launch and completion, a packer with its converter
// borrowed from the engine), and what is left is named in DESIGN
// decision 24. The messages cross the wire between two nodes, as
// p2p_lat's do; at the commit before, the three cost 29.5, 15.5 and
// 68.5.
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
	for _, tc := range []struct {
		what string
		dt   *datatype.Datatype
		host bool
		want float64
	}{
		{"eager, device", shapes.SubMatrix(16, 8, 12), false, 9},
		{"eager, host", shapes.LowerTriangular(64), true, 7},
		{"one-fragment rendezvous, device", shapes.LowerTriangular(192), false, 41},
	} {
		const warm, runs = 4, 50
		var perMessage float64
		w := NewWorld(blockedConfig(2, 1, true))
		w.Run(func(m *Rank) {
			var buf mem.Buffer
			if tc.host {
				buf = m.MallocHost(spanOf(tc.dt, 1))
			} else {
				buf = m.Malloc(spanOf(tc.dt, 1))
			}
			peer := 1 - m.Rank()
			if m.Rank() == 1 {
				for i := 0; i < warm+runs+1; i++ {
					m.Recv(buf, tc.dt, 1, peer, 0)
					m.Send(buf, tc.dt, 1, peer, 1)
				}
				return
			}
			roundTrip := func() {
				m.Send(buf, tc.dt, 1, peer, 0)
				m.Recv(buf, tc.dt, 1, peer, 1)
			}
			for i := 0; i < warm; i++ {
				roundTrip()
			}
			perMessage = testing.AllocsPerRun(runs, roundTrip) / 2
		})
		w.Close()
		if perMessage > tc.want {
			t.Errorf("%s: %.1f allocations per message, want at most %.0f", tc.what, perMessage, tc.want)
		}
	}
}
