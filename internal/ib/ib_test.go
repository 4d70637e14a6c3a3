package ib

import (
	"fmt"
	"testing"

	"gpuddt/internal/fault"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

func twoNodes(t *testing.T) (*sim.Engine, *HCA, *HCA) {
	t.Helper()
	e := sim.NewEngine()
	f := NewFabric(e, DefaultParams())
	n0 := pcie.NewNode(e, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	n1 := pcie.NewNode(e, 1, 1, gpu.KeplerK40(), pcie.DefaultParams())
	return e, f.Attach(n0), f.Attach(n1)
}

func TestSendDeliversInOrder(t *testing.T) {
	e, a, b := twoNodes(t)
	var got []int
	e.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(p, b, 64, &Msg{Arg: i})
		}
	})
	e.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, b.Inbox().Get(p).Arg)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

func TestWriteMovesDataAtWireRate(t *testing.T) {
	e, a, b := twoNodes(t)
	src := a.Node().Host().Alloc(60<<20, 256)
	dst := b.Node().Host().Alloc(60<<20, 256)
	mem.FillPattern(src, 11)
	var dur sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		a.Write(p, b, dst, src)
		dur = p.Now() - t0
	})
	e.Run()
	if !mem.Equal(src, dst) {
		t.Fatal("RDMA write did not move data")
	}
	wire := sim.TimeForBytes(60<<20, DefaultParams().WireGBps) // bottleneck hop (cut-through)
	if dur < wire || dur > wire+10*sim.Microsecond {
		t.Fatalf("dur = %v, wire = %v", dur, wire)
	}
}

func TestReadCostsExtraRoundTrip(t *testing.T) {
	e, a, b := twoNodes(t)
	remote := b.Node().Host().Alloc(1<<20, 256)
	local := a.Node().Host().Alloc(1<<20, 256)
	mem.FillPattern(remote, 4)
	var wDur, rDur sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		a.Write(p, b, remote, local)
		wDur = p.Now() - t0
		t0 = p.Now()
		a.Read(p, b, local, remote)
		rDur = p.Now() - t0
	})
	e.Run()
	if !mem.Equal(remote, local) {
		t.Fatal("read corrupt")
	}
	if rDur <= wDur {
		t.Fatalf("read %v not slower than write %v", rDur, wDur)
	}
}

func TestGPUDirectThrottled(t *testing.T) {
	e, a, b := twoNodes(t)
	devSrc := a.Node().GPU(0).Mem().Alloc(10<<20, 256)
	hostSrc := a.Node().Host().Alloc(10<<20, 256)
	dst := b.Node().Host().Alloc(10<<20, 256)
	var devDur, hostDur sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		a.Write(p, b, dst, hostSrc)
		hostDur = p.Now() - t0
		t0 = p.Now()
		a.Write(p, b, dst, devSrc)
		devDur = p.Now() - t0
	})
	e.Run()
	if devDur < hostDur*4 {
		t.Fatalf("GPUDirect large-message path not throttled: dev %v host %v", devDur, hostDur)
	}
}

func TestRegistrationCached(t *testing.T) {
	e, a, _ := twoNodes(t)
	buf := a.Node().Host().Alloc(4096, 256)
	var first, second sim.Time
	e.Spawn("x", func(p *sim.Proc) {
		t0 := p.Now()
		a.Register(p, buf)
		first = p.Now() - t0
		t0 = p.Now()
		a.Register(p, buf)
		second = p.Now() - t0
	})
	e.Run()
	if first != DefaultParams().RegCost || second != 0 {
		t.Fatalf("reg costs: first %v second %v", first, second)
	}
}

// TestPinnedSpaceRegistersFree: every buffer of a pinned space is a
// registration hit on the HCA that pinned it — no time, and no fault
// rolled even under a plan that fails every registration and evicts
// every hit — while the HCA of another node still pays for it.
func TestPinnedSpaceRegistersFree(t *testing.T) {
	e, a, b := twoNodes(t)
	plan := &fault.Plan{Persistent: map[fault.Site]bool{fault.IBRegister: true, fault.IBRegEvict: true}}
	in := fault.NewInjector(plan)
	a.f.SetFaults(in)
	arena := mem.NewSpace("arena", mem.Host, 1<<20)
	a.Pin(arena)
	bufs := []mem.Buffer{arena.Alloc(64, 0), arena.Alloc(4096, 0).Slice(100, 200)}
	var took sim.Time
	var errs []error
	e.Spawn("x", func(p *sim.Proc) {
		for _, buf := range bufs {
			errs = append(errs, a.Register(p, buf))
		}
		took = p.Now()
		errs = append(errs, b.Register(p, bufs[0]))
	})
	e.Run()
	if took != 0 || errs[0] != nil || errs[1] != nil {
		t.Fatalf("pinned buffers: %v of registration, errors %v", took, errs[:2])
	}
	if errs[2] == nil || in.Total() != 1 {
		t.Fatalf("the other node's HCA: error %v, %d faults; want its registration to roll and fail", errs[2], in.Total())
	}
}

func TestConcurrentSendersShareReceiverRx(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, DefaultParams())
	nodes := make([]*HCA, 3)
	for i := range nodes {
		nodes[i] = f.Attach(pcie.NewNode(e, i, 0, gpu.KeplerK40(), pcie.DefaultParams()))
	}
	dstA := nodes[2].Node().Host().Alloc(60<<20, 256)
	dstB := nodes[2].Node().Host().Alloc(60<<20, 256)
	var ends [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		src := nodes[i].Node().Host().Alloc(60<<20, 256)
		dst := dstA
		if i == 1 {
			dst = dstB
		}
		e.Spawn("s", func(p *sim.Proc) {
			nodes[i].Write(p, nodes[2], dst, src)
			ends[i] = p.Now()
		})
	}
	e.Run()
	one := sim.TimeForBytes(60<<20, DefaultParams().WireGBps)
	later := ends[0]
	if ends[1] > later {
		later = ends[1]
	}
	if later < 2*one-sim.Microsecond {
		t.Fatalf("receiver rx not shared: last end %v, one-transfer time %v", later, one)
	}
}

// fatTree builds a hierarchical fabric of n single-GPU nodes.
func fatTree(t *testing.T, n int, topo Topology) (*sim.Engine, *Fabric, []*HCA) {
	t.Helper()
	e := sim.NewEngine()
	pa := DefaultParams()
	pa.Topo = topo
	f := NewFabric(e, pa)
	var hcas []*HCA
	for i := 0; i < n; i++ {
		node := pcie.NewNode(e, i, 1, gpu.KeplerK40(), pcie.DefaultParams())
		hcas = append(hcas, f.Attach(node))
	}
	return e, f, hcas
}

func TestFatTreeLeafAssignment(t *testing.T) {
	_, f, hcas := fatTree(t, 8, FatTree(4, 2))
	if f.Leaves() != 2 {
		t.Fatalf("8 nodes at radix 4 built %d leaves, want 2", f.Leaves())
	}
	for i, h := range hcas {
		if want := i / 4; h.Leaf() != want {
			t.Fatalf("hca %d on leaf %d, want %d", i, h.Leaf(), want)
		}
	}
	if got := f.Params().Topo.Oversubscription(); got != 2 {
		t.Fatalf("oversubscription = %v, want 2", got)
	}
}

// TestFatTreeCrossLeafLatency: a cross-leaf send arrives two hop
// latencies later than a same-leaf send (leaf→spine plus spine→leaf).
func TestFatTreeCrossLeafLatency(t *testing.T) {
	e, _, hcas := fatTree(t, 8, FatTree(4, 2))
	var same, cross sim.Time
	e.Spawn("sender", func(p *sim.Proc) {
		hcas[0].Send(p, hcas[1], 64, nil)
		hcas[0].Send(p, hcas[7], 64, nil)
	})
	e.Spawn("near", func(p *sim.Proc) {
		hcas[1].Inbox().Get(p)
		same = p.Now()
	})
	e.Spawn("far", func(p *sim.Proc) {
		hcas[7].Inbox().Get(p)
		cross = p.Now()
	})
	e.Run()
	pa := DefaultParams()
	extra := cross - same
	// The cross-leaf message was posted one send later, so subtract the
	// second posting overhead and serialization before comparing hops.
	overlap := pa.PerMsgOverhead + sim.TimeForBytes(64, pa.WireGBps)
	if extra-overlap != pa.Latency { // 2 extra hops at Latency/2 each
		t.Fatalf("cross-leaf extra latency = %v, want %v", extra-overlap, pa.Latency)
	}
}

// TestFatTreeUplinkCongestion: two simultaneous cross-leaf RDMA writes
// hashed onto the same spine serialize on the shared uplink, while the
// same pair of flows on a fully-provisioned tree using distinct spines
// (or within a leaf) run concurrently.
func TestFatTreeUplinkCongestion(t *testing.T) {
	const n = 40 << 20
	elapsed := func(srcA, dstA, srcB, dstB int, topo Topology) sim.Time {
		e, _, hcas := fatTree(t, 8, topo)
		bufs := make(map[int]mem.Buffer)
		for _, i := range []int{srcA, dstA, srcB, dstB} {
			bufs[i] = hcas[i].Node().Host().Alloc(n, 256)
		}
		e.Spawn("a", func(p *sim.Proc) { hcas[srcA].Write(p, hcas[dstA], bufs[dstA], bufs[srcA]) })
		e.Spawn("b", func(p *sim.Proc) { hcas[srcB].Write(p, hcas[dstB], bufs[dstB], bufs[srcB]) })
		e.Run()
		return e.Now()
	}
	topo := FatTree(4, 2)
	// 0→4 hashes to spine (0+4)%2 = 0; 2→6 to (2+6)%2 = 0: shared uplink.
	shared := elapsed(0, 4, 2, 6, topo)
	// 0→4 spine 0; 1→6 spine 1: disjoint spines, also disjoint tx/rx.
	disjoint := elapsed(0, 4, 1, 6, topo)
	if shared < 2*disjoint*9/10 {
		t.Fatalf("shared-spine flows finished in %v, disjoint in %v; congestion not modeled", shared, disjoint)
	}
	if within := elapsed(0, 1, 2, 3, topo); within >= disjoint {
		t.Fatalf("same-leaf flows (%v) should beat cross-leaf (%v)", within, disjoint)
	}
}

// TestFlatFabricCreatesNoSwitchLinks pins the byte-identity guarantee:
// a flat fabric must not instantiate any leaf/spine links, so link
// creation order (and with it every golden trace) is unchanged.
func TestFlatFabricCreatesNoSwitchLinks(t *testing.T) {
	_, f, hcas := fatTree(t, 4, Topology{})
	if f.Leaves() != 0 {
		t.Fatalf("flat fabric built %d leaf switches", f.Leaves())
	}
	for _, h := range hcas {
		if pa := h.pathTo(hcas[0]); len(pa.Hops()) != 2 {
			t.Fatalf("flat path has %d hops, want 2", len(pa.Hops()))
		}
	}
}

// TestPathToIsBuiltOncePerPeer: same-leaf and cross-leaf paths are
// built on first use and returned thereafter, each its hops in lock
// order (link creation order). 0 and 7 sit on leaves 0 and 1 and hash
// to spine (0+7)%2 = 1 both ways.
func TestPathToIsBuiltOncePerPeer(t *testing.T) {
	_, _, hcas := fatTree(t, 8, FatTree(4, 2))
	for _, peer := range []int{1, 7} {
		if hcas[0].pathTo(hcas[peer]) != hcas[0].pathTo(hcas[peer]) {
			t.Fatalf("pathTo(hca %d) returned two different paths", peer)
		}
	}
	for _, tc := range []struct {
		src, dst int
		want     string
	}{
		{0, 1, "[ib0.tx ib1.rx]"},
		{0, 7, "[ib0.tx leaf0.up1 leaf1.down1 ib7.rx]"},
		{7, 0, "[ib0.rx leaf0.down1 leaf1.up1 ib7.tx]"},
	} {
		var hops []string
		for _, l := range hcas[tc.src].pathTo(hcas[tc.dst]).Hops() {
			hops = append(hops, l.Name())
		}
		if got := fmt.Sprint(hops); got != tc.want {
			t.Errorf("ib%d->ib%d hops %s, want %s", tc.src, tc.dst, got, tc.want)
		}
	}
	if hcas[0].pathTo(hcas[7]) == hcas[7].pathTo(hcas[0]) {
		t.Fatal("the two directions share a path")
	}
}
