package ib

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// fatTreeHCAs builds n HCAs on a two-tier tree.
func fatTreeHCAs(n, leafRadix, spines int) (*sim.Engine, *Fabric, []*HCA) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Topo = FatTree(leafRadix, spines)
	f := NewFabric(e, p)
	hcas := make([]*HCA, n)
	for i := range hcas {
		hcas[i] = f.Attach(pcie.NewNode(e, i, 1, gpu.KeplerK40(), pcie.DefaultParams()))
	}
	return e, f, hcas
}

// hostBuf returns b's bytes in a fresh buffer of member h's host
// memory, as a contribution.
func hostBuf(h *HCA, b []byte) mem.Buffer {
	buf := h.Node().Host().Alloc(int64(len(b)), 8)
	copy(buf.Bytes(), b)
	return buf
}

// sumBytes is a toy combine: per-byte wrap-around addition — enough to
// prove combine ordering, since it is commutative and associative.
func sumBytes(acc, in []byte) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// TestSwitchReduceDeterministicResult staggers member arrival times and
// still requires the exact member-index-order combine result in every
// member's buffer.
func TestSwitchReduceDeterministicResult(t *testing.T) {
	const n = 8
	e, f, hcas := fatTreeHCAs(n, 4, 2)
	contrib := func(i int) []byte {
		b := make([]byte, 64)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}
	want := contrib(0)
	for i := 1; i < n; i++ {
		sumBytes(want, contrib(i))
	}
	got := make([]mem.Buffer, n)
	for i := 0; i < n; i++ {
		i := i
		got[i] = hostBuf(hcas[i], contrib(i))
		e.Spawn(fmt.Sprintf("member%d", i), func(p *sim.Proc) {
			// Reverse-staggered start: member 0 arrives last.
			p.Sleep(sim.Time(n-i) * 5 * sim.Microsecond)
			f.SwitchReduce(p, 7, hcas, i, got[i], sumBytes)
		})
	}
	e.Run()
	for i := 0; i < n; i++ {
		if !bytes.Equal(got[i].Bytes(), want) {
			t.Fatalf("member %d: switch reduce result differs from member-order oracle", i)
		}
	}
}

// maxBytes is the second toy combine: per-byte maximum.
func maxBytes(acc, in []byte) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// TestSwitchReduceConcurrentOps keeps two reductions over the same
// members in flight at once — distinct op IDs, different contributions
// and different combines, their arrivals interleaved in virtual time —
// and requires each member's result of each op to equal that op's
// result when it runs alone: the fold state is per op.
func TestSwitchReduceConcurrentOps(t *testing.T) {
	const n = 8
	type op struct {
		id      int
		start   sim.Time
		seed    int
		combine func(acc, in []byte)
	}
	ops := []op{
		{id: 7, start: 0, seed: 31, combine: sumBytes},
		{id: 8, start: 2 * sim.Microsecond, seed: 57, combine: maxBytes},
	}
	// run starts the given ops on one fresh fabric and returns every
	// member's result of each.
	run := func(ops ...op) [][]mem.Buffer {
		e, f, hcas := fatTreeHCAs(n, 4, 2)
		got := make([][]mem.Buffer, len(ops))
		for k, o := range ops {
			k, o := k, o
			got[k] = make([]mem.Buffer, n)
			for i := 0; i < n; i++ {
				i := i
				e.Spawn(fmt.Sprintf("op%d.member%d", o.id, i), func(p *sim.Proc) {
					p.Sleep(o.start + sim.Time(i)*5*sim.Microsecond)
					b := make([]byte, 64)
					for j := range b {
						b[j] = byte(i*o.seed + j*(i+1))
					}
					got[k][i] = hostBuf(hcas[i], b)
					f.SwitchReduce(p, o.id, hcas, i, got[k][i], o.combine)
				})
			}
		}
		e.Run()
		return got
	}
	both := run(ops...)
	for k, o := range ops {
		alone := run(o)[0]
		for i := 0; i < n; i++ {
			if !bytes.Equal(both[k][i].Bytes(), alone[i].Bytes()) {
				t.Fatalf("op %d member %d: concurrent result differs from the op run alone", o.id, i)
			}
		}
	}
}

// TestSwitchReduceReusesOps runs reductions one after another on one
// fabric, over 4, then 8, then 4 members: each gives the member-order
// result, and each takes the finished record of the one before, grown
// when it has more members.
func TestSwitchReduceReusesOps(t *testing.T) {
	e, f, hcas := fatTreeHCAs(8, 4, 2)
	e.Spawn("driver", func(p *sim.Proc) {
		for round, k := range []int{4, 8, 4} {
			want := make([]byte, 16)
			bufs := make([]mem.Buffer, k)
			done := make([]*sim.Future, k)
			for i := range bufs {
				b := make([]byte, 16)
				for j := range b {
					b[j] = byte(round*17 + i*5 + j)
				}
				sumBytes(want, b)
				bufs[i], done[i] = hostBuf(hcas[i], b), e.NewFuture()
				i := i
				e.Spawn(fmt.Sprintf("round%d.member%d", round, i), func(pp *sim.Proc) {
					f.SwitchReduce(pp, 9, hcas[:k], i, bufs[i], sumBytes)
					done[i].Complete(nil)
				})
			}
			for i := range done {
				done[i].Await(p)
			}
			for i := range bufs {
				if !bytes.Equal(bufs[i].Bytes(), want) {
					t.Errorf("round %d (%d members), member %d: result differs from member-order oracle", round, k, i)
				}
			}
			if len(f.sharp) != 1 {
				t.Errorf("round %d: %d op records, want the one reused", round, len(f.sharp))
			}
		}
	})
	e.Run()
}

// TestSwitchReduceSingleLeaf skips the spine tier when all members hang
// off one leaf.
func TestSwitchReduceSingleLeaf(t *testing.T) {
	const n = 4
	e, f, hcas := fatTreeHCAs(n, 4, 2)
	rec := sim.NewRecorder(e)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("member%d", i), func(p *sim.Proc) {
			f.SwitchReduce(p, 3, hcas, i, hostBuf(hcas[i], []byte{byte(i)}), sumBytes)
		})
	}
	e.Run()
	seen := map[string]bool{}
	for _, tk := range rec.Tracks() {
		for _, sp := range tk.Spans {
			seen[sp.Name] = true
		}
	}
	if !seen["sharp.leaf"] {
		t.Fatal("no leaf ALU span recorded")
	}
	if seen["sharp.spine"] {
		t.Fatal("single-leaf reduction should not touch the spine tier")
	}
}

// TestSwitchReduceFlatFabricPanics: no switches, no switch reduction.
func TestSwitchReduceFlatFabricPanics(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, DefaultParams())
	h := f.Attach(pcie.NewNode(e, 0, 1, gpu.KeplerK40(), pcie.DefaultParams()))
	e.Spawn("member", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("SwitchReduce on a flat fabric did not panic")
			}
		}()
		f.SwitchReduce(p, 0, []*HCA{h}, 0, hostBuf(h, []byte{1}), sumBytes)
	})
	e.Run()
}

// TestReduceParamsNormalized: the ALU defaults follow the uplink
// calibration only on hierarchical fabrics.
func TestReduceParamsNormalized(t *testing.T) {
	e := sim.NewEngine()
	p := DefaultParams()
	p.Topo = FatTree(4, 2)
	f := NewFabric(e, p)
	got := f.Params().Topo
	if got.ReduceGBps != got.UplinkGBps {
		t.Fatalf("ReduceGBps = %v, want uplink rate %v", got.ReduceGBps, got.UplinkGBps)
	}
	if got.ReduceLatency != got.HopLatency {
		t.Fatalf("ReduceLatency = %v, want hop latency %v", got.ReduceLatency, got.HopLatency)
	}
	flat := NewFabric(sim.NewEngine(), DefaultParams()).Params().Topo
	if flat.ReduceGBps != 0 || flat.ReduceLatency != 0 {
		t.Fatal("flat fabric should not normalize switch-ALU params")
	}
}
