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

// blockedConfig places nodes*rpn ranks in the blocked layout (rank r on
// node r/rpn) the hierarchical collectives recognize.
func blockedConfig(nodes, rpn int, flat bool) Config {
	var ranks []Placement
	for r := 0; r < nodes*rpn; r++ {
		ranks = append(ranks, Placement{Node: r / rpn, GPU: r % rpn})
	}
	cfg := Config{Ranks: ranks}
	if flat {
		cfg.Tuning = &Tuning{Collectives: CollFlat}
	}
	return cfg
}

func TestHierDispatchSelection(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"2x2 blocked", blockedConfig(2, 2, false), true},
		{"4x4 blocked", blockedConfig(4, 4, false), true},
		{"forced flat", blockedConfig(2, 2, true), false},
		{"single node", blockedConfig(1, 4, false), false},
		{"one rank per node", blockedConfig(4, 1, false), false},
		{"cyclic layout", Config{Ranks: []Placement{
			{Node: 0, GPU: 0}, {Node: 1, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 1},
		}}, false},
		{"non-uniform", Config{Ranks: []Placement{
			{Node: 0, GPU: 0}, {Node: 0, GPU: 1}, {Node: 1, GPU: 0},
		}}, false},
	}
	for _, c := range cases {
		if got := NewWorld(c.cfg).TopologyAware(); got != c.want {
			t.Errorf("%s: TopologyAware = %v, want %v", c.name, got, c.want)
		}
	}
}

// checkQuiescent asserts the world held nothing back after the
// collective (World.Quiescent).
func checkQuiescent(t *testing.T, w *World, what string) {
	t.Helper()
	if err := w.Quiescent(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestCommViews round-trips index and rank through the four
// communicator views — world, node, leaders (with and without the
// acting-leader override) and Group — and pins that building and
// querying the arithmetic ones allocates nothing.
func TestCommViews(t *testing.T) {
	const nodes, rpn = 3, 4
	w := NewWorld(blockedConfig(nodes, rpn, false))
	defer w.Close()
	members := []int{7, 2, 9}
	g := w.NewGroup(members)
	for r := 0; r < w.Size(); r++ {
		m := w.RankHandle(r)
		for _, c := range []comm{m.worldComm(), m.nodeComm()} {
			if c.rank(c.me) != r {
				t.Fatalf("rank %d: comm %+v places me at rank %d", r, c, c.rank(c.me))
			}
		}
		for i, node := 0, m.nodeComm(); i < rpn; i++ {
			if got, want := node.rank(i), r/rpn*rpn+i; node.n != rpn || got != want {
				t.Fatalf("rank %d: node member %d = %d, want %d", r, i, got, want)
			}
		}
		for _, root := range []int{-1, 0, 6, 11} {
			lc := m.leaderComm(root)
			if lc.n != nodes || lc.me != r/rpn {
				t.Fatalf("rank %d root %d: leader comm %+v", r, root, lc)
			}
			for nd := 0; nd < nodes; nd++ {
				want := nd * rpn
				if root >= 0 && nd == root/rpn {
					want = root // the root leads its own node
				}
				if got := lc.rank(nd); got != want {
					t.Fatalf("rank %d root %d: leader of node %d = %d, want %d", r, root, nd, got, want)
				}
			}
		}
		if g.Contains(r) {
			c := g.comm(m)
			if c.n != len(members) || members[c.me] != r || c.rank(c.me) != r {
				t.Fatalf("rank %d: group comm %+v", r, c)
			}
		}
	}
	m := w.RankHandle(5)
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		sink += m.worldComm().rank(3) + m.nodeComm().rank(2) + m.leaderComm(6).rank(1)
	}); n != 0 || sink == 0 {
		t.Fatalf("building a comm allocated %v times", n)
	}
}

// hierShapes are the node layouts the differential tests sweep: the
// smallest hierarchical world, a non-power-of-two node count, and a
// 32-rank tree.
var hierShapes = []struct{ nodes, rpn int }{{2, 2}, {3, 2}, {4, 4}, {8, 4}}

// TestHierBcastMatchesFlat runs the same broadcast through the
// hierarchical and flat algorithms and requires byte-identical buffers
// on every rank, for leader and non-leader roots.
func TestHierBcastMatchesFlat(t *testing.T) {
	dt := shapes.SubMatrix(32, 32, 48)
	for _, sh := range hierShapes {
		size := sh.nodes * sh.rpn
		for _, root := range []int{0, size - 1} {
			run := func(flat bool) [][]byte {
				w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
				if w.TopologyAware() == flat {
					t.Fatalf("%dx%d: dispatch wrong", sh.nodes, sh.rpn)
				}
				imgs := make([][]byte, size)
				w.Run(func(m *Rank) {
					buf := m.Malloc(dt.Span(2))
					if m.Rank() == root {
						mem.FillPattern(buf, uint64(31+root))
					}
					m.Bcast(buf, dt, 2, root)
					imgs[m.Rank()] = cpuPack(dt, 2, buf.Bytes())
				})
				checkQuiescent(t, w, fmt.Sprintf("bcast %dx%d", sh.nodes, sh.rpn))
				w.Close()
				return imgs
			}
			hier, flat := run(false), run(true)
			for r := 0; r < size; r++ {
				if !bytes.Equal(hier[r], flat[r]) {
					t.Fatalf("%dx%d root %d: rank %d hier bcast differs from flat", sh.nodes, sh.rpn, root, r)
				}
				if !bytes.Equal(hier[r], hier[root]) {
					t.Fatalf("%dx%d root %d: rank %d did not receive root data", sh.nodes, sh.rpn, root, r)
				}
			}
		}
	}
}

// TestHierAllgatherMatchesFlat: an eager-sized slot takes the
// hierarchical schedule and must deliver the flat ring's bytes on every
// rank. A rendezvous-sized slot (64 KiB + 64 B of 64-byte device blocks)
// takes the flat ring itself on a topology-aware world, so it must also
// finish at the flat run's virtual time.
func TestHierAllgatherMatchesFlat(t *testing.T) {
	type shape = struct{ nodes, rpn int }
	for _, row := range []struct {
		dt       *datatype.Datatype
		count    int
		shapes   []shape
		sameTime bool
	}{
		{shapes.SubMatrix(16, 16, 24), 3, hierShapes, false},
		{datatype.Vector(1025, 8, 16, datatype.Float64), 1, []shape{{2, 2}, {2, 4}}, true},
	} {
		dt, count := row.dt, row.count
		for _, sh := range row.shapes {
			size := sh.nodes * sh.rpn
			stride := int64(count) * dt.Extent()
			run := func(flat bool) ([][]byte, sim.Time) {
				w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
				imgs := make([][]byte, size)
				var end sim.Time
				w.Run(func(m *Rank) {
					buf := m.Malloc(dt.Span(size * count))
					mem.FillPattern(buf.Slice(int64(m.Rank())*stride, dt.Span(count)), uint64(500+m.Rank()))
					m.Allgather(buf, dt, count)
					end = max(end, m.Now())
					imgs[m.Rank()] = cpuPack(dt, size*count, buf.Bytes())
				})
				checkQuiescent(t, w, "allgather")
				w.Close()
				return imgs, end
			}
			hier, hierEnd := run(false)
			flat, flatEnd := run(true)
			for r := 0; r < size; r++ {
				if !bytes.Equal(hier[r], flat[r]) {
					t.Fatalf("%s x%d, %dx%d: rank %d hier allgather differs from flat", dt.Name(), count, sh.nodes, sh.rpn, r)
				}
			}
			if row.sameTime && hierEnd != flatEnd {
				t.Fatalf("%s x%d, %dx%d: topology-aware allgather ends at %v, the flat ring at %v", dt.Name(), count, sh.nodes, sh.rpn, hierEnd, flatEnd)
			}
		}
	}
}

func TestHierAlltoallMatchesFlat(t *testing.T) {
	dt := shapes.SubMatrix(16, 16, 24)
	const count = 2
	for _, sh := range hierShapes {
		size := sh.nodes * sh.rpn
		stride := int64(count) * dt.Extent()
		run := func(flat bool) [][]byte {
			w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
			imgs := make([][]byte, size)
			w.Run(func(m *Rank) {
				sendBuf := m.Malloc(dt.Span(size * count))
				recvBuf := m.Malloc(dt.Span(size * count))
				for peer := 0; peer < size; peer++ {
					mem.FillPattern(sendBuf.Slice(int64(peer)*stride, dt.Span(count)),
						uint64(1000*m.Rank()+peer))
				}
				m.Alltoall(sendBuf, dt, count, recvBuf, dt, count)
				imgs[m.Rank()] = cpuPack(dt, size*count, recvBuf.Bytes())
			})
			checkQuiescent(t, w, "alltoall")
			w.Close()
			return imgs
		}
		hier, flat := run(false), run(true)
		for r := 0; r < size; r++ {
			if !bytes.Equal(hier[r], flat[r]) {
				t.Fatalf("%dx%d: rank %d hier alltoall differs from flat", sh.nodes, sh.rpn, r)
			}
		}
	}
}

// TestHierAlltoallViewsBuiltOnce: the leaders' two views of a
// hierarchical Alltoall are built once per world for each block size, so
// a second call on a warm 64-rank world builds no datatype: it finds the
// two types the first call built (TestCollectiveAllocs pins the call at
// zero objects), and a call of another block size adds its own pair.
func TestHierAlltoallViewsBuiltOnce(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)
	w := NewWorld(blockedConfig(16, 4, false))
	defer w.Close()
	var first, second alltoallViews
	var sizes int
	w.Run(func(m *Rank) {
		n := m.Size()
		send, recv := m.Malloc(dt.Span(2*n)), m.Malloc(dt.Span(2*n))
		m.Alltoall(send, dt, 1, recv, dt, 1)
		m.Barrier()
		if m.Rank() == 0 {
			first = m.w.a2aViews[dt.Size()]
		}
		m.Alltoall(send, dt, 1, recv, dt, 1)
		m.Barrier()
		if m.Rank() == 0 {
			second = m.w.a2aViews[dt.Size()]
		}
		m.Alltoall(send, dt, 2, recv, dt, 2)
		m.Barrier()
		if m.Rank() == 0 {
			sizes = len(m.w.a2aViews)
		}
	})
	if first.node == nil || first.col == nil || first != second {
		t.Errorf("views after the first call %v, after the second %v: want the same two types", first, second)
	}
	if sizes != 2 {
		t.Errorf("%d block sizes have views, want 2", sizes)
	}
}

// TestHierAlltoallEmptyBlocks: blocks of an empty datatype carry no
// bytes, so no side may wait for a message the other never sends.
func TestHierAlltoallEmptyBlocks(t *testing.T) {
	empty := datatype.Contiguous(0, datatype.Byte)
	w := NewWorld(blockedConfig(2, 2, false))
	defer w.Close()
	w.Run(func(m *Rank) {
		buf := m.Malloc(16)
		m.Alltoall(buf, empty, 1, buf, empty, 1)
	})
	checkQuiescent(t, w, "alltoall")
}

// TestHierReduceMatchesFlat uses Int64 sums and maxima, which are
// exactly associative, so hier and flat must agree bit for bit even
// though the combine order differs.
func TestHierReduceMatchesFlat(t *testing.T) {
	const count = 2048
	dt := datatype.Contiguous(count, datatype.Int64)
	for _, sh := range hierShapes {
		size := sh.nodes * sh.rpn
		for _, op := range []Op{OpSum, OpMax} {
			root := size - 1
			run := func(flat bool) []byte {
				w := NewWorld(blockedConfig(sh.nodes, sh.rpn, flat))
				var img []byte
				w.Run(func(m *Rank) {
					sendBuf := m.Malloc(dt.Size())
					mem.FillPattern(sendBuf, uint64(71+m.Rank()))
					var recvBuf mem.Buffer
					if m.Rank() == root {
						recvBuf = m.Malloc(dt.Size())
					}
					m.Reduce(sendBuf, recvBuf, dt, 1, op, root)
					if m.Rank() == root {
						img = append([]byte(nil), recvBuf.Bytes()...)
					}
				})
				checkQuiescent(t, w, "reduce")
				w.Close()
				return img
			}
			if hier, flat := run(false), run(true); !bytes.Equal(hier, flat) {
				t.Fatalf("%dx%d op %d: hier reduce differs from flat", sh.nodes, sh.rpn, op)
			}
		}
	}
}

// TestHierAllreduce exercises the composed collective (hierarchical
// reduce followed by hierarchical bcast) across a 3x2 world.
func TestHierAllreduce(t *testing.T) {
	const count = 512
	dt := datatype.Contiguous(count, datatype.Int64)
	w := NewWorld(blockedConfig(3, 2, false))
	size := w.Size()
	imgs := make([][]byte, size)
	w.Run(func(m *Rank) {
		sendBuf := m.MallocHost(dt.Size())
		recvBuf := m.MallocHost(dt.Size())
		mem.FillPattern(sendBuf, uint64(7+m.Rank()))
		m.Allreduce(sendBuf, recvBuf, dt, 1, OpSum)
		imgs[m.Rank()] = append([]byte(nil), recvBuf.Bytes()...)
	})
	checkQuiescent(t, w, "allreduce")
	for r := 1; r < size; r++ {
		if !bytes.Equal(imgs[r], imgs[0]) {
			t.Fatalf("rank %d allreduce result differs from rank 0", r)
		}
	}
}

// TestHierPhaseSpans asserts the hierarchical collectives annotate
// their intra/inter phases on the trace timeline.
func TestHierPhaseSpans(t *testing.T) {
	dt := shapes.SubMatrix(16, 16, 24)
	w := NewWorld(blockedConfig(2, 2, false))
	rec := sim.NewRecorder(w.Engine())
	size := w.Size()
	stride := dt.Extent()
	w.Run(func(m *Rank) {
		sendBuf := m.Malloc(dt.Span(size))
		recvBuf := m.Malloc(dt.Span(size))
		mem.FillPattern(sendBuf, uint64(m.Rank()))
		m.Alltoall(sendBuf, dt, 1, recvBuf, dt, 1)
		_ = stride
	})
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tk := range rec.Tracks() {
		for _, sp := range tk.Spans {
			seen[sp.Name] = true
		}
	}
	for _, want := range []string{"coll.alltoall.intra", "coll.alltoall.inter"} {
		if !seen[want] {
			t.Fatalf("no %s span on the timeline", want)
		}
	}
}

// TestHierCollectivesOnFatTree runs the hierarchical collectives over an
// oversubscribed fat-tree fabric, proving correctness is independent of
// the switch hierarchy.
func TestHierCollectivesOnFatTree(t *testing.T) {
	dt := shapes.SubMatrix(16, 16, 24)
	cfg := blockedConfig(8, 2, false)
	cfg.IB.Topo.LeafRadix = 4
	cfg.IB.Topo.Spines = 2
	w := NewWorld(cfg)
	size := w.Size()
	stride := dt.Extent()
	imgs := make([][]byte, size)
	w.Run(func(m *Rank) {
		sendBuf := m.Malloc(dt.Span(size))
		recvBuf := m.Malloc(dt.Span(size))
		for peer := 0; peer < size; peer++ {
			mem.FillPattern(sendBuf.Slice(int64(peer)*stride, dt.Span(1)), uint64(300*m.Rank()+peer))
		}
		m.Alltoall(sendBuf, dt, 1, recvBuf, dt, 1)
		imgs[m.Rank()] = cpuPack(dt, size, recvBuf.Bytes())
	})
	checkQuiescent(t, w, "fat-tree alltoall")
	// Differential oracle: the flat algorithm on a flat fabric.
	ref := NewWorld(blockedConfig(8, 2, true))
	refImgs := make([][]byte, size)
	ref.Run(func(m *Rank) {
		sendBuf := m.Malloc(dt.Span(size))
		recvBuf := m.Malloc(dt.Span(size))
		for peer := 0; peer < size; peer++ {
			mem.FillPattern(sendBuf.Slice(int64(peer)*stride, dt.Span(1)), uint64(300*m.Rank()+peer))
		}
		m.Alltoall(sendBuf, dt, 1, recvBuf, dt, 1)
		refImgs[m.Rank()] = cpuPack(dt, size, recvBuf.Bytes())
	})
	for r := 0; r < size; r++ {
		if !bytes.Equal(imgs[r], refImgs[r]) {
			t.Fatalf("rank %d: fat-tree hier alltoall differs from flat oracle", r)
		}
	}
}
