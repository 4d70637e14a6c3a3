package mpi

import (
	"bytes"
	"runtime"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// switchConfig places nodes*rpn ranks blocked on a fat-tree fabric
// under the default tuning, which reduces in-network where that is
// exact.
func switchConfig(nodes, rpn, leafRadix, spines int) Config {
	cfg := blockedConfig(nodes, rpn, false)
	cfg.IB.Topo.LeafRadix = leafRadix
	cfg.IB.Topo.Spines = spines
	return cfg
}

// TestSwitchDispatchSelection is the default's truth table: Reduce and
// Allreduce run at the switches on a fat tree spanning more than one
// node when the combine is exact there (Int64, or OpMax), except a
// Reduce over exactly two node leaders, which stays on the host tree.
// A flat fabric and CollFlat never go in-network.
func TestSwitchDispatchSelection(t *testing.T) {
	combines := []struct {
		name  string
		dt    *datatype.Datatype
		op    Op
		exact bool
	}{
		{"int64 sum", datatype.Int64, OpSum, true},
		{"int64 max", datatype.Int64, OpMax, true},
		{"float64 max", datatype.Float64, OpMax, true},
		{"float64 sum", datatype.Float64, OpSum, false},
	}
	for _, c := range combines {
		for _, nodes := range []int{1, 2, 3} {
			for _, all := range []bool{false, true} {
				want := c.exact && (nodes == 3 || nodes == 2 && all)
				if got := NewWorld(switchConfig(nodes, 2, 2, 1)).ranks[0].switchOn(c.dt, c.op, all); got != want {
					t.Errorf("%s, %d nodes, allreduce %v: switchOn = %v, want %v", c.name, nodes, all, got, want)
				}
			}
		}
		for _, all := range []bool{false, true} {
			if NewWorld(switchConfig(3, 2, 0, 0)).ranks[0].switchOn(c.dt, c.op, all) {
				t.Errorf("%s, allreduce %v: in-network on a flat fabric", c.name, all)
			}
			cfg := switchConfig(3, 2, 2, 1)
			cfg.Tuning = &Tuning{Collectives: CollFlat}
			if NewWorld(cfg).ranks[0].switchOn(c.dt, c.op, all) {
				t.Errorf("%s, allreduce %v: in-network under CollFlat", c.name, all)
			}
		}
	}
	// One rank per node: no host leader algorithm, yet Reduce and
	// Allreduce run in-network through the node leaders.
	w := NewWorld(switchConfig(4, 1, 2, 1))
	if w.TopologyAware() {
		t.Error("one rank per node: TopologyAware reports host leader algorithms")
	}
	for _, all := range []bool{false, true} {
		if !w.ranks[0].switchOn(datatype.Int64, OpSum, all) {
			t.Errorf("one rank per node, allreduce %v: not in-network", all)
		}
	}
}

// TestSwitchReduceMatchesFlat is the bit-identity gate: the default
// Reduce — in-network beyond two nodes, the host tree at two — must
// agree with the flat host-side oracle bit for bit on the operators
// exact at the switch (Int64 sum and max).
func TestSwitchReduceMatchesFlat(t *testing.T) {
	const count = 2048
	dt := datatype.Contiguous(count, datatype.Int64)
	shapes := []struct{ nodes, rpn, radix, spines int }{
		{2, 2, 2, 1}, {4, 2, 2, 2}, {8, 4, 4, 2},
	}
	for _, sh := range shapes {
		size := sh.nodes * sh.rpn
		for _, op := range []Op{OpSum, OpMax} {
			for _, root := range []int{0, size - 1} {
				run := func(cfg Config) []byte {
					w := NewWorld(cfg)
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
					checkQuiescent(t, w, "switch reduce")
					w.Close()
					return img
				}
				sw := run(switchConfig(sh.nodes, sh.rpn, sh.radix, sh.spines))
				flat := run(blockedConfig(sh.nodes, sh.rpn, true))
				if !bytes.Equal(sw, flat) {
					t.Fatalf("%dx%d op %d root %d: switch reduce differs from flat oracle",
						sh.nodes, sh.rpn, op, root)
				}
			}
		}
	}
}

// TestSwitchAllreduceMatchesFlat: every rank's default (in-network)
// Allreduce result must match the flat oracle bit for bit.
func TestSwitchAllreduceMatchesFlat(t *testing.T) {
	const count = 1024
	dt := datatype.Contiguous(count, datatype.Int64)
	shapes := []struct{ nodes, rpn, radix, spines int }{
		{2, 2, 2, 1}, {3, 2, 2, 1}, {8, 4, 4, 1},
	}
	for _, sh := range shapes {
		size := sh.nodes * sh.rpn
		run := func(cfg Config) [][]byte {
			w := NewWorld(cfg)
			imgs := make([][]byte, size)
			w.Run(func(m *Rank) {
				sendBuf := m.Malloc(dt.Size())
				recvBuf := m.Malloc(dt.Size())
				mem.FillPattern(sendBuf, uint64(7+m.Rank()))
				m.Allreduce(sendBuf, recvBuf, dt, 1, OpSum)
				imgs[m.Rank()] = append([]byte(nil), recvBuf.Bytes()...)
			})
			checkQuiescent(t, w, "switch allreduce")
			w.Close()
			return imgs
		}
		sw := run(switchConfig(sh.nodes, sh.rpn, sh.radix, sh.spines))
		flat := run(blockedConfig(sh.nodes, sh.rpn, true))
		for r := 0; r < size; r++ {
			if !bytes.Equal(sw[r], flat[r]) {
				t.Fatalf("%dx%d: rank %d switch allreduce differs from flat oracle", sh.nodes, sh.rpn, r)
			}
		}
	}
}

// TestSwitchReduceSpans asserts the in-network phase appears on the
// trace timeline (both the MPI-level span and the fabric's ALU spans),
// proving the dispatch actually took the switch path.
func TestSwitchReduceSpans(t *testing.T) {
	const count = 512
	dt := datatype.Contiguous(count, datatype.Int64)
	w := NewWorld(switchConfig(4, 2, 2, 1))
	rec := sim.NewRecorder(w.Engine())
	w.Run(func(m *Rank) {
		sendBuf := m.MallocHost(dt.Size())
		recvBuf := m.MallocHost(dt.Size())
		mem.FillPattern(sendBuf, uint64(m.Rank()))
		m.Allreduce(sendBuf, recvBuf, dt, 1, OpSum)
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
	for _, want := range []string{"coll.reduce.sharp", "sharp.contrib", "sharp.leaf"} {
		if !seen[want] {
			t.Fatalf("no %s span on the timeline", want)
		}
	}
}

// TestSwitchBeatsHierOversubscribed pins why in-network reduction is
// the default: on an oversubscribed fat tree the default Int64
// Allreduce, which runs at the switches, finishes earlier in virtual
// time than the same bytes as Float64, which stay on the host-side
// hierarchical tree, because one partial per leaf crosses the starved
// uplinks instead of log2(nodes) full binomial rounds.
func TestSwitchBeatsHierOversubscribed(t *testing.T) {
	const count = 1 << 15 // 256 KiB per rank
	run := func(prim *datatype.Datatype) sim.Time {
		dt := datatype.Contiguous(count, prim)
		w := NewWorld(switchConfig(8, 4, 4, 1)) // 4:1 oversubscribed, two leaves
		w.Run(func(m *Rank) {
			sendBuf := m.MallocHost(dt.Size())
			recvBuf := m.MallocHost(dt.Size())
			mem.FillPattern(sendBuf, uint64(m.Rank()))
			m.Allreduce(sendBuf, recvBuf, dt, 1, OpSum)
		})
		now := w.Engine().Now()
		w.Close()
		return now
	}
	hier, sw := run(datatype.Float64), run(datatype.Int64)
	if sw >= hier {
		t.Fatalf("in-network Int64 allreduce (%v) not faster than the host tree's Float64 one (%v) on an oversubscribed tree", sw, hier)
	}
	t.Logf("host tree %v, switch %v (%.2fx)", hier, sw, float64(hier)/float64(sw))
}

// TestSwitchReduceAllocatesNoPayload pins the switch path's heap cost:
// the switches fold the leaders' staged contributions in place, so a
// steady-state in-network Allreduce of a 32 KiB Int64 vector on a
// rebuilt 64-rank world allocates no object of payload size (32 KiB or
// more) in any of its processes, outside the world's own memory
// spaces. A fold over copies of the 16 contributions allocated
// 17 × 32 KiB per reduction.
func TestSwitchReduceAllocatesNoPayload(t *testing.T) {
	const n = 32 << 10
	dt := datatype.Contiguous(n/8, datatype.Int64)
	cfg := switchConfig(16, 4, 8, 4)
	round := func(traced bool) {
		w := NewWorld(cfg)
		var rec *sim.Recorder
		if traced {
			rec = sim.NewRecorder(w.Engine())
		}
		w.Run(func(m *Rank) {
			sendBuf := m.Malloc(n)
			recvBuf := m.Malloc(n)
			for range 2 {
				m.Allreduce(sendBuf, recvBuf, dt, 1, OpSum)
			}
		})
		if rec != nil && rec.Counter("ib.sharp.reduce") != 2 {
			t.Fatalf("%d in-network reductions, want 2", rec.Counter("ib.sharp.reduce"))
		}
		w.Close()
	}
	round(true)
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := payloadAllocs()
	round(false)
	if got := payloadAllocs() - before; got != 0 {
		t.Errorf("a rebuilt world's in-network Allreduces allocated %d bytes in payload-sized objects, want 0", got)
	}
}

// payloadAllocs returns the bytes simulated processes have allocated so
// far in objects of 32 KiB or more, other than a memory space's backing.
func payloadAllocs() int64 {
	for range 3 { // the profile publishes a cycle's allocations two collections late
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 || r.AllocBytes/r.AllocObjects < 32<<10 {
			continue
		}
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "gpuddt/internal/mem.(*Space).ensure" {
				break
			}
			if f.Function == "gpuddt/internal/sim.(*Proc).run" {
				total += r.AllocBytes
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
