package mpi

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// switchConfig places nodes*rpn ranks blocked on a fat-tree fabric and
// requests in-network reduction.
func switchConfig(nodes, rpn, leafRadix, spines int) Config {
	var ranks []Placement
	for r := 0; r < nodes*rpn; r++ {
		ranks = append(ranks, Placement{Node: r / rpn, GPU: r % rpn})
	}
	cfg := Config{Ranks: ranks, Tuning: &Tuning{Collectives: CollSwitch}}
	cfg.IB.Topo.LeafRadix = leafRadix
	cfg.IB.Topo.Spines = spines
	return cfg
}

func TestSwitchDispatchSelection(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"fat tree, switch requested", switchConfig(4, 2, 2, 1), true},
		{"one rank per node still reduces in-network", switchConfig(4, 1, 2, 1), true},
		{"flat fabric falls back", func() Config {
			cfg := switchConfig(4, 2, 0, 0)
			return cfg
		}(), false},
		{"single node falls back", switchConfig(1, 4, 2, 1), false},
		{"auto tuning never goes in-network", func() Config {
			cfg := switchConfig(4, 2, 2, 1)
			cfg.Tuning = &Tuning{}
			return cfg
		}(), false},
	}
	for _, c := range cases {
		w := NewWorld(c.cfg)
		if got := w.ranks[0].switchOn(); got != c.want {
			t.Errorf("%s: switchOn = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSwitchReduceMatchesFlat is the bit-identity gate: the in-network
// reduction must agree with the flat host-side oracle bit for bit on
// exactly-associative operators (Int64 sum and max).
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

// TestSwitchAllreduceMatchesFlat: every rank's Allreduce result must
// match the flat oracle bit for bit.
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

// TestSwitchBeatsHierOversubscribed pins the performance claim the
// tuner exploits: on an oversubscribed fat tree the in-network
// reduction finishes earlier in virtual time than the host-side
// hierarchical tree, because one partial per leaf crosses the starved
// uplinks instead of log2(nodes) full binomial rounds.
func TestSwitchBeatsHierOversubscribed(t *testing.T) {
	const count = 1 << 15 // 256 KiB of Int64 per rank
	dt := datatype.Contiguous(count, datatype.Int64)
	run := func(coll CollMode) sim.Time {
		cfg := switchConfig(8, 4, 4, 1) // 4:1 oversubscribed, two leaves
		cfg.Tuning = &Tuning{Collectives: coll}
		w := NewWorld(cfg)
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
	hier, sw := run(CollAuto), run(CollSwitch)
	if sw >= hier {
		t.Fatalf("switch allreduce (%v) not faster than hier (%v) on oversubscribed tree", sw, hier)
	}
	t.Logf("hier %v, switch %v (%.2fx)", hier, sw, float64(hier)/float64(sw))
}
