package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestNewWorldRejectsBadPlacement: a placement off either end of the
// node or GPU range fails in NewWorld with the rank named, before any
// rank is built, not later inside a rank's process.
func TestNewWorldRejectsBadPlacement(t *testing.T) {
	const want = "mpi: rank 1 placement out of range"
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"negative node", Config{Ranks: []Placement{{0, 0}, {Node: -1}}}},
		{"negative GPU", Config{Ranks: []Placement{{0, 0}, {GPU: -1}}}},
		{"node past Nodes", Config{Ranks: []Placement{{0, 0}, {Node: 2}}, Nodes: 2}},
		{"GPU past GPUsPerNode", Config{Ranks: []Placement{{0, 0}, {GPU: 2}}, GPUsPerNode: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("panic = %v, want %q", r, want)
				}
			}()
			NewWorld(tc.cfg)
		})
	}
}

// TestFatTreeWithoutWireRate: a Config whose only IB setting is its
// topology runs on that tree, the link calibration defaulted around it —
// the topology is not dropped with the zero wire rate.
func TestFatTreeWithoutWireRate(t *testing.T) {
	cfg := Config{
		Ranks: []Placement{{0, 0}, {1, 0}, {2, 0}, {3, 0}},
		IB:    ib.Params{Topo: ib.FatTree(2, 1)},
	}
	w := NewWorld(cfg)
	dt := datatype.Contiguous(256, datatype.Float64)
	w.Run(func(m *Rank) {
		buf := m.MallocHost(dt.Span(1))
		switch m.Rank() {
		case 0:
			m.Send(buf, dt, 1, 3, 0)
		case 3:
			m.Recv(buf, dt, 1, 0, 0)
		}
	})
	w.Close()
	if got := w.fabric.Leaves(); got != 2 {
		t.Fatalf("%d leaf switches built, want 2 (rank 0 and rank 3 sit on different leaves)", got)
	}
	if got, want := w.fabric.Params().WireGBps, ib.DefaultParams().WireGBps; got != want {
		t.Fatalf("wire rate %v, want the default %v", got, want)
	}
}

// builtEngines counts the datatype engines a rank has built.
func builtEngines(m *Rank) int {
	n := 0
	for _, e := range m.engs {
		if e != nil {
			n++
		}
	}
	return n
}

// TestRankBuildsOnlyItsOwnEngine: two ranks on GPU 0 of a 4-GPU node
// exchange device messages, eager and rendezvous, that never leave the
// GPU; each ends with the one engine it was built with.
func TestRankBuildsOnlyItsOwnEngine(t *testing.T) {
	w := NewWorld(Config{Ranks: []Placement{{0, 0}, {0, 0}}, GPUsPerNode: 4})
	small, large := shapes.SubMatrix(16, 8, 12), shapes.SubMatrix(256, 256, 512)
	w.Run(func(m *Rank) {
		for _, dt := range []*datatype.Datatype{small, large} {
			buf := m.Malloc(dt.Span(1))
			peer := 1 - m.Rank()
			if m.Rank() == 0 {
				m.Send(buf, dt, 1, peer, 0)
			} else {
				m.Recv(buf, dt, 1, peer, 0)
			}
		}
	})
	for r := 0; r < 2; r++ {
		if n := builtEngines(w.RankHandle(r)); n != 1 {
			t.Errorf("rank %d built %d engines on a 4-GPU node, want 1", r, n)
		}
	}
	w.Close()
}

// TestPeerEngineBuiltOnFirstUse: packing from a buffer on a peer GPU
// builds the rank's engine for that GPU when it is first needed.
func TestPeerEngineBuiltOnFirstUse(t *testing.T) {
	w := NewWorld(Config{Ranks: []Placement{{0, 0}, {0, 1}}})
	dt := shapes.SubMatrix(16, 8, 12)
	var sent, got []byte
	w.Run(func(m *Rank) {
		if m.Rank() == 1 {
			buf := m.Malloc(dt.Span(1))
			m.Recv(buf, dt, 1, 0, 0)
			got = cpuPack(dt, 1, buf.Bytes())
			return
		}
		if n := builtEngines(m); n != 1 || m.engs[1] != nil {
			t.Errorf("rank 0 starts with %d engines (peer's built: %v), want its own only", n, m.engs[1] != nil)
		}
		buf := m.Ctx().Malloc(1, dt.Span(1)) // on the peer GPU
		mem.FillPattern(buf, 3)
		sent = cpuPack(dt, 1, buf.Bytes())
		m.Send(buf, dt, 1, 1, 0)
		eng := m.engs[1]
		if eng == nil {
			t.Fatal("sending from a peer-GPU buffer did not build that GPU's engine")
		}
	})
	if !bytes.Equal(sent, got) {
		t.Error("payload from the peer-GPU buffer mismatched")
	}
	if n := builtEngines(w.RankHandle(0)); n != 2 {
		t.Errorf("rank 0 ends with %d engines, want 2", n)
	}
	w.Close()
}
