// Package ib models an InfiniBand fabric connecting cluster nodes: HCAs
// with per-direction links, ordered message delivery, RDMA read/write
// against registered memory, a registration cache, and an optional
// GPUDirect-RDMA path whose large-message throughput is capped as on real
// Kepler-era hardware (which is why the paper pipelines large transfers
// through host memory, §5.2).
package ib

import (
	"strconv"

	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Params calibrates the fabric (FDR InfiniBand defaults).
type Params struct {
	// WireGBps is the per-direction bandwidth of an HCA port (FDR 4x:
	// 56 Gb/s signalling, ~6 GB/s effective).
	WireGBps float64

	// Latency is the end-to-end propagation latency between two HCAs.
	Latency sim.Time

	// PerMsgOverhead is the send-side posting cost per message.
	PerMsgOverhead sim.Time

	// RegCost is the one-time cost of registering a memory region with
	// the HCA; registrations are cached, as in the paper's one-time
	// RDMA connection establishment. A space pinned whole (HCA.Pin)
	// never pays it.
	RegCost sim.Time

	// GPUDirectReadGBps caps RDMA reads that target GPU memory directly
	// (GPUDirect RDMA). On Kepler/IVB platforms this path is far below
	// the wire rate for large messages, which is why the openib BTL
	// stages large fragments through host memory.
	GPUDirectReadGBps float64

	// Topo selects the switch hierarchy. The zero value is the single
	// flat crossbar the paper's two-node testbed used; setting LeafRadix
	// turns on the two-tier fat tree.
	Topo Topology
}

// Topology describes a two-tier fat tree: HCAs attach to leaf switches
// in attach order (LeafRadix per leaf), and every leaf reaches every
// other leaf through one of Spines spine switches. Each (leaf, spine)
// pair is a dedicated up and a dedicated down sim.Link shared by all
// flows routed over it, so uplink congestion under oversubscription is
// modeled by real queueing, not a formula. The zero value means a
// single flat switch (the pre-hierarchy model, byte-identical to it).
type Topology struct {
	// LeafRadix is the number of HCAs per leaf switch; 0 disables the
	// hierarchy entirely (flat single switch, no extra links created).
	LeafRadix int

	// Spines is the number of spine switches, i.e. uplinks per leaf.
	// 0 defaults to LeafRadix (a fully-provisioned 1:1 tree); LeafRadix/2
	// gives the classic 2:1 oversubscription.
	Spines int

	// UplinkGBps is the per-uplink bandwidth; 0 defaults to WireGBps.
	UplinkGBps float64

	// HopLatency is the extra propagation latency per spine-tier hop
	// (leaf→spine and spine→leaf each charge one); 0 defaults to
	// Latency/2.
	HopLatency sim.Time

	// ReduceGBps is the throughput of a switch's reduction ALU
	// (SHARP-style in-network Reduce/Allreduce, see Fabric.SwitchReduce);
	// 0 defaults to UplinkGBps — the ALU keeps up with one port, as on
	// real SHARP-capable switches.
	ReduceGBps float64

	// ReduceLatency is the fixed per-switch cost of starting an
	// in-network reduction stage; 0 defaults to HopLatency.
	ReduceLatency sim.Time
}

// Hierarchical reports whether the fabric has a spine tier.
func (t Topology) Hierarchical() bool { return t.LeafRadix > 0 }

// FatTree returns the topology of a two-tier tree with the given leaf
// radix and spine count (bandwidth and latency at the wire defaults).
func FatTree(leafRadix, spines int) Topology {
	return Topology{LeafRadix: leafRadix, Spines: spines}
}

// DefaultParams returns the PSG-cluster-like FDR calibration.
func DefaultParams() Params {
	return Params{
		WireGBps:          6.0,
		Latency:           1300 * sim.Nanosecond,
		PerMsgOverhead:    600 * sim.Nanosecond,
		RegCost:           30 * sim.Microsecond,
		GPUDirectReadGBps: 0.9,
	}
}

// Fabric is a set of interconnected HCAs.
type Fabric struct {
	eng    *sim.Engine
	params Params
	hcas   []*HCA
	leaves []*leafSwitch
	faults *fault.Injector
	sharp  []*sharpOp // in-network reductions, in flight or finished (sharp.go)
}

// leafSwitch holds one leaf's shared uplink servers: up[s] carries
// leaf→spine s traffic, down[s] spine s→leaf. Flows between HCAs on the
// same leaf never touch them (the leaf crossbar is non-blocking).
type leafSwitch struct {
	name     string // "leaf<i>"
	up, down []*sim.Link

	// The names of its reduction processes, made on its first
	// reduction (sharp.go).
	sharpUp, sharpDown string
}

// SetFaults installs a fault injector on the fabric. A nil injector
// (the default) makes every operation infallible, as before.
func (f *Fabric) SetFaults(in *fault.Injector) { f.faults = in }

// WithDefaults returns p with every zero field filled: the link
// calibration from DefaultParams, and on a fat tree the topology's
// (Spines = LeafRadix, uplinks at the wire rate, hops at Latency/2, the
// switch ALU at the uplink rate and hop latency). A flat fabric keeps
// its zero topology.
func (p Params) WithDefaults() Params {
	def := DefaultParams()
	if p.WireGBps <= 0 {
		p.WireGBps = def.WireGBps
	}
	if p.Latency <= 0 {
		p.Latency = def.Latency
	}
	if p.PerMsgOverhead <= 0 {
		p.PerMsgOverhead = def.PerMsgOverhead
	}
	if p.RegCost <= 0 {
		p.RegCost = def.RegCost
	}
	if p.GPUDirectReadGBps <= 0 {
		p.GPUDirectReadGBps = def.GPUDirectReadGBps
	}
	if t := &p.Topo; t.Hierarchical() {
		if t.Spines <= 0 {
			t.Spines = t.LeafRadix
		}
		if t.UplinkGBps <= 0 {
			t.UplinkGBps = p.WireGBps
		}
		if t.HopLatency <= 0 {
			t.HopLatency = p.Latency / 2
		}
		if t.ReduceGBps <= 0 {
			t.ReduceGBps = t.UplinkGBps
		}
		if t.ReduceLatency <= 0 {
			t.ReduceLatency = t.HopLatency
		}
	}
	return p
}

// NewFabric creates an empty fabric with p's zero fields defaulted (see
// WithDefaults).
func NewFabric(eng *sim.Engine, p Params) *Fabric {
	return &Fabric{eng: eng, params: p.WithDefaults()}
}

// Params returns the fabric calibration.
func (f *Fabric) Params() Params { return f.params }

// Leaves returns the number of leaf switches instantiated so far
// (always 0 on a flat fabric).
func (f *Fabric) Leaves() int { return len(f.leaves) }

// ensureLeaf instantiates leaf switches up to and including index i,
// creating the per-spine up/down links. Only ever called on a
// hierarchical fabric, so the flat default creates zero extra links
// (keeping link creation order — and golden traces — untouched).
func (f *Fabric) ensureLeaf(i int) {
	t := f.params.Topo
	for len(f.leaves) <= i {
		prefix := "leaf" + strconv.Itoa(len(f.leaves))
		ls := &leafSwitch{name: prefix}
		for s := 0; s < t.Spines; s++ {
			var names [2]string
			spine := strconv.Itoa(s)
			sim.Names(names[:], prefix, ".up"+spine, ".down"+spine)
			ls.up = append(ls.up, f.eng.NewLink(names[0], t.UplinkGBps, t.HopLatency))
			ls.down = append(ls.down, f.eng.NewLink(names[1], t.UplinkGBps, t.HopLatency))
		}
		f.leaves = append(f.leaves, ls)
	}
}

// HCA is one node's host channel adapter.
type HCA struct {
	f     *Fabric
	node  *pcie.Node
	leaf  int // leaf switch index (attach order / LeafRadix); 0 when flat
	tx    *sim.Link
	rx    *sim.Link
	inbox sim.Server[Msg]
	regs  map[regKey]bool
	index int         // attach order on the fabric
	paths []*sim.Path // pathTo's results, by the peer's index
	sharp string      // process name of a reduction result's last hop
}

type regKey struct {
	space *mem.Space
	addr  int64 // wholeSpace: the space is pinned (HCA.Pin)
}

// wholeSpace is the regKey address of a pinned space.
const wholeSpace = -1

// Attach creates an HCA on node and joins it to the fabric, cabling it
// to the next free leaf port (attach order) on a hierarchical fabric.
func (f *Fabric) Attach(node *pcie.Node) *HCA {
	var names [3]string
	sim.Names(names[:], "ib"+strconv.Itoa(node.ID()), ".tx", ".rx", ".inbox")
	h := &HCA{
		f:     f,
		node:  node,
		tx:    f.eng.NewLink(names[0], f.params.WireGBps, f.params.Latency/2),
		rx:    f.eng.NewLink(names[1], f.params.WireGBps, f.params.Latency/2),
		regs:  make(map[regKey]bool),
		index: len(f.hcas),
	}
	h.inbox.Mailbox.Init(f.eng, names[2])
	if f.params.Topo.Hierarchical() {
		h.leaf = h.index / f.params.Topo.LeafRadix
		f.ensureLeaf(h.leaf)
	}
	f.hcas = append(f.hcas, h)
	return h
}

// Inbox returns the mailbox where received messages appear (in order).
// Until its owner makes it a server with Init, a process takes them with
// Get.
func (h *HCA) Inbox() *sim.Server[Msg] { return &h.inbox }

// Msg is what an HCA carries: an integer for a handler that the
// receiving side already holds, addressed to one of its endpoints. The
// fabric never runs the handler; it only delivers the value, so a
// message allocates nothing.
type Msg struct {
	Dst int     // the receiving endpoint (an MPI rank)
	To  Handler // the receiving side's record that handles the message
	Arg int
}

// Handler is the record a Msg names. Handle runs wherever the receiving
// side executes its messages, with the message's integer.
type Handler interface {
	Handle(p *sim.Proc, arg int)
}

// Pin registers the whole address range of s with the HCA at once and
// outside virtual time, as an MPI library's memory pool registers its
// free lists at init: Register then hits on every buffer inside s. A
// pinned region is never evicted, so such a hit rolls no fault.
func (h *HCA) Pin(s *mem.Space) { h.regs[regKey{space: s, addr: wholeSpace}] = true }

// Register pins a memory region with the HCA, charging the registration
// cost on first use of the region (cached afterwards). A fault plan can
// fail the registration outright, or force a cache hit to re-register
// (an eviction storm — a latency fault, never an error). A buffer in a
// pinned space (Pin) is a hit and nothing else.
func (h *HCA) Register(p *sim.Proc, b mem.Buffer) error {
	if h.regs[regKey{space: b.Space(), addr: wholeSpace}] {
		p.Count("ib.reg.hit", 1)
		return nil
	}
	key := regKey{space: b.Space(), addr: b.Addr()}
	if h.regs[key] {
		if !h.f.faults.Evict(p, fault.IBRegEvict) {
			p.Count("ib.reg.hit", 1)
			return nil
		}
		delete(h.regs, key) // storm: the pinned region was evicted
	}
	if err := h.f.faults.Check(p, fault.IBRegister, b.Len()); err != nil {
		return err
	}
	p.Count("ib.reg.miss", 1)
	sp := p.BeginBytes("ib.register", b.Len())
	p.Sleep(h.f.params.RegCost)
	sp.End()
	h.regs[key] = true
	return nil
}

// pathTo returns the cut-through path to a peer HCA, built on first use
// (the cabling is fixed once both ends are attached). Same-leaf (and
// flat-fabric) traffic crosses only the two port links; cross-leaf
// traffic additionally holds the shared uplink to its spine and the
// peer leaf's downlink, so concurrent flows over an oversubscribed
// spine tier queue against each other.
func (h *HCA) pathTo(peer *HCA) *sim.Path {
	if n := len(h.f.hcas); len(h.paths) < n {
		h.paths = append(h.paths, make([]*sim.Path, n-len(h.paths))...)
	}
	pa := h.paths[peer.index]
	if pa == nil {
		if h.leaf == peer.leaf {
			pa = sim.NewPath(h.tx, peer.rx)
		} else {
			s := h.spineFor(peer)
			pa = sim.NewPath(h.tx, h.f.leaves[h.leaf].up[s], h.f.leaves[peer.leaf].down[s], peer.rx)
		}
		h.paths[peer.index] = pa
	}
	return pa
}

// spineFor picks the spine carrying h→peer traffic: static ECMP-style
// hashing on the endpoint pair, so a given flow is stable (FIFO order
// preserved) while distinct pairs spread across the spines.
func (h *HCA) spineFor(peer *HCA) int {
	return (h.node.ID() + peer.node.ID()) % h.f.params.Topo.Spines
}

// Send transmits a message of n wire bytes carrying *m (an empty Msg if
// m is nil) to peer, blocking the caller until injection and delivering
// a copy of it to the peer's inbox after the wire time. Messages between
// a pair of HCAs are delivered in order (the links are FIFO). An
// injected send fault (a send timeout) delivers nothing.
func (h *HCA) Send(p *sim.Proc, peer *HCA, n int64, m *Msg) error {
	sp := p.BeginBytes("ib.send", n)
	defer sp.End()
	p.Sleep(h.f.params.PerMsgOverhead)
	if err := h.f.faults.Check(p, fault.IBSend, n); err != nil {
		return err
	}
	pa := h.pathTo(peer)
	pa.Occupy(p, n)
	var msg Msg
	if m != nil {
		msg = *m
	}
	peer.inbox.PutAfter(pa.Latency(), msg)
	return nil
}

// Write performs an RDMA write of src (local, registered) into dst
// (remote, registered), blocking until remote completion. Data lands in
// the remote buffer's real bytes. An injected fault either loses the
// operation before any byte moves, or — the dropped-completion flavor —
// lands the payload and loses only the completion, so the caller's
// retry must be idempotent (it is: the write targets the same bytes).
func (h *HCA) Write(p *sim.Proc, peer *HCA, dst, src mem.Buffer) error {
	if dst.Len() != src.Len() {
		panic("ib: RDMA write length mismatch")
	}
	sp := p.BeginBytes("rdma.write", src.Len())
	defer sp.End()
	p.Sleep(h.f.params.PerMsgOverhead)
	if err := h.f.faults.Check(p, fault.RDMAWrite, src.Len()); err != nil {
		if fault.WasDelivered(err) {
			h.pathTo(peer).Transfer(p, h.wireBytes(src))
			mem.Copy(dst, src)
		}
		return err
	}
	h.pathTo(peer).Transfer(p, h.wireBytes(src))
	mem.Copy(dst, src)
	return nil
}

// Read performs an RDMA read of src (remote, registered) into dst
// (local), blocking until the data has arrived. A read costs one extra
// round-trip latency for the request. Fault semantics mirror Write.
func (h *HCA) Read(p *sim.Proc, peer *HCA, dst, src mem.Buffer) error {
	if dst.Len() != src.Len() {
		panic("ib: RDMA read length mismatch")
	}
	sp := p.BeginBytes("rdma.read", src.Len())
	defer sp.End()
	// The read request travels to the target first; the request leg
	// crosses the same hops as the returning data.
	p.Sleep(h.f.params.PerMsgOverhead + h.pathTo(peer).Latency())
	if err := h.f.faults.Check(p, fault.RDMARead, src.Len()); err != nil {
		if fault.WasDelivered(err) {
			peer.pathTo(h).Transfer(p, peer.wireBytes(src))
			mem.Copy(dst, src)
		}
		return err
	}
	peer.pathTo(h).Transfer(p, peer.wireBytes(src))
	mem.Copy(dst, src)
	return nil
}

// wireBytes inflates the transfer size when src or dst is GPU memory and
// the GPUDirect path throttles below the wire rate.
func (h *HCA) wireBytes(b mem.Buffer) int64 {
	if b.Kind() != mem.Device {
		return b.Len()
	}
	gd := h.f.params.GPUDirectReadGBps
	if gd <= 0 || gd >= h.f.params.WireGBps {
		return b.Len()
	}
	return int64(float64(b.Len()) * h.f.params.WireGBps / gd)
}
