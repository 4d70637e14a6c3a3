package cluster

import (
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
)

func TestPaperTopologies(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want []mpi.Placement
	}{
		{"1gpu", OneGPU(), []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 0}}},
		{"2gpu", TwoGPU(), []mpi.Placement{{Node: 0, GPU: 0}, {Node: 0, GPU: 1}}},
		{"ib", TwoNode(), []mpi.Placement{{Node: 0, GPU: 0}, {Node: 1, GPU: 0}}},
	}
	for _, c := range cases {
		got := c.spec.Placements()
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d placements, want %d", c.name, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: placement %d = %+v, want %+v", c.name, i, got[i], c.want[i])
			}
		}
		if by := ByName(c.name); by != c.spec {
			t.Fatalf("ByName(%q) = %+v, want %+v", c.name, by, c.spec)
		}
	}
}

func TestScaleShape(t *testing.T) {
	s := Scale(16, 2, 4, 2)
	if s.Size() != 64 {
		t.Fatalf("Size = %d, want 64", s.Size())
	}
	pls := s.Placements()
	for r, pl := range pls {
		if pl.Node != r/4 {
			t.Fatalf("rank %d on node %d, want blocked layout", r, pl.Node)
		}
		if pl.GPU != (r%4)%2 {
			t.Fatalf("rank %d on GPU %d, want round-robin over 2 GPUs", r, pl.GPU)
		}
	}
	if !s.IB.Topo.Hierarchical() {
		t.Fatal("Scale spec is not hierarchical")
	}
	if got := s.IB.Topo.Oversubscription(); got != 2 {
		t.Fatalf("oversubscription = %v, want 2", got)
	}
}

// TestConfigBuildsTopologyAwareWorld: a Scale spec's config must yield
// a world the hierarchical collectives recognize, and the paper specs
// must not.
func TestConfigBuildsTopologyAwareWorld(t *testing.T) {
	if w := mpi.NewWorld(Scale(4, 1, 2, 1).Config()); !w.TopologyAware() {
		t.Fatal("Scale(4,1,2,1) world is not topology-aware")
	}
	for _, name := range []string{"1gpu", "2gpu", "ib"} {
		if w := mpi.NewWorld(ByName(name).Config()); w.TopologyAware() {
			t.Fatalf("%s world claims topology awareness", name)
		}
	}
}

// TestWorldRebuildHitsPool: a sweep builds the same world over and over.
// Once one of them has been closed, the next of the same shape takes
// every backing array of its node and device spaces from the slab pool
// — about 150 of them for 64 ranks, which a bound on the number of
// parked slabs used to evict — and gives them all back. Its ranks'
// staging arenas come from the arena shelf, each already grown by the
// closed world, and ask the pool for nothing: no arena's backing
// changes while the rebuilt world runs.
func TestWorldRebuildHitsPool(t *testing.T) {
	world := func() (st mem.PoolStats, grown int) {
		mem.ResetSlabPoolStats()
		w := mpi.NewWorld(Scale(16, 4, 4, 2).Config())
		w.Run(func(m *mpi.Rank) {
			before := m.Staging().FootprintBytes()
			n := int64(m.Size()) << 10
			m.Alltoall(m.Malloc(n), datatype.Byte, 1<<10, m.Malloc(n), datatype.Byte, 1<<10)
			if m.Staging().FootprintBytes() != before {
				grown++
			}
		})
		w.Close()
		return mem.SlabPoolStats(), grown
	}
	world()
	st, grown := world()
	if st.Gets < 64 {
		t.Fatalf("rebuilt world asked for %d slabs: its node and device spaces should ask for dozens", st.Gets)
	}
	if st.Hits != st.Gets || st.Evicted != 0 {
		t.Fatalf("rebuilt world: %d of %d slabs from the pool, %d evicted; want all and none", st.Hits, st.Gets, st.Evicted)
	}
	if grown != 0 {
		t.Fatalf("rebuilt world: %d ranks' staging arenas grew; want none, each from the shelf as the closed world left it", grown)
	}
}

func TestSpecString(t *testing.T) {
	if got := Scale(16, 1, 4, 2).String(); got != "16x4 (fat-tree 8:4)" {
		t.Fatalf("String = %q", got)
	}
	if got := TwoNode().String(); got != "2x1" {
		t.Fatalf("String = %q", got)
	}
}

// TestScaleModelled: the modelled-mode spec carries the engine shard
// count, names itself distinctly, and leaves the real-payload naming
// untouched.
func TestScaleModelled(t *testing.T) {
	s := ScaleModelled(4096, 1, 4, 2, 8)
	if !s.Modelled || s.Shards != 8 {
		t.Fatalf("ScaleModelled fields: %+v", s)
	}
	if s.Size() != 16384 {
		t.Fatalf("Size = %d, want 16384", s.Size())
	}
	if got := s.String(); got != "4096x4 (fat-tree 8:4) [modelled x8]" {
		t.Fatalf("String = %q", got)
	}
	if got := (Spec{Nodes: 2, GPUsPerNode: 1, Modelled: true}).String(); got != "2x1 [modelled x1]" {
		t.Fatalf("String = %q", got)
	}
}
