// Package pcie models the intra-node interconnect of one cluster node:
// host memory, the PCI-Express root complex, and the per-slot links of
// every GPU.
//
// Topology (per direction, full duplex):
//
//	host --rootTx--> [switch] --gpuRx[i]--> GPU i
//	GPU i --gpuTx[i]--> [switch] --rootRx--> host
//	GPU i --gpuTx[i]--> [switch] --gpuRx[j]--> GPU j   (peer to peer)
//
// Peer-to-peer traffic does not traverse the root-complex links, which is
// why GPU-GPU bandwidth exceeds CPU-GPU bandwidth, as the paper notes
// (§4.1, citing its reference [18]). Host-to-device and device-to-host
// transfers from different GPUs contend on the root links.
package pcie

import (
	"gpuddt/internal/fault"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Params calibrates the node interconnect.
type Params struct {
	// RootGBps is the bandwidth of each root-complex direction
	// (host-to-switch and switch-to-host). PCIe gen3 x16 practical.
	RootGBps float64

	// SlotGBps is the bandwidth of each GPU slot direction. Slightly
	// above the root so that P2P beats host-routed transfers.
	SlotGBps float64

	// HopLatency is the propagation latency per link hop.
	HopLatency sim.Time

	// HostBusRawGBps is the host DRAM bandwidth available to CPU copies,
	// counting reads and writes separately (a host memcpy of n bytes
	// consumes 2n raw).
	HostBusRawGBps float64

	// IPCMapCost is the one-time cost of opening a CUDA IPC memory
	// handle from a peer process (§4.1: "a costly operation" that the
	// pipelined protocol amortizes by caching).
	IPCMapCost sim.Time

	// HostMemBytes sizes the simulated host memory space.
	HostMemBytes int64
}

// DefaultParams returns the PSG-cluster-like calibration: PCIe gen3 x16.
func DefaultParams() Params {
	return Params{
		RootGBps:       10.0,
		SlotGBps:       10.5,
		HopLatency:     750 * sim.Nanosecond,
		HostBusRawGBps: 24.0,
		IPCMapCost:     50 * sim.Microsecond,
		HostMemBytes:   1 << 30,
	}
}

// Node is one cluster node: a host memory space, a set of GPUs, and the
// PCIe links between them.
type Node struct {
	eng    *sim.Engine
	id     int
	params Params
	host   mem.Space
	bus    *sim.Link
	gpus   []gpu.Device
	faults *fault.Injector

	rootTx, rootRx *sim.Link
	gpuTx, gpuRx   []*sim.Link

	// The paths between the endpoints, each built on its first transfer
	// and kept: a transfer takes the one for its direction instead of
	// assembling it. p2p[i*len(gpus)+j] runs from GPU i to GPU j.
	h2d, d2h, p2p []*sim.Path
}

// SetFaults installs a fault injector on the node and every GPU in it.
// A nil injector (the default) keeps all operations infallible.
func (n *Node) SetFaults(in *fault.Injector) {
	n.faults = in
	for i := range n.gpus {
		n.gpus[i].SetFaults(in)
	}
}

// Faults returns the node's fault injector (nil when none installed).
func (n *Node) Faults() *fault.Injector { return n.faults }

// The names of a node's host space and links, by node id, and of a GPU
// slot's two links, by node and GPU id.
var (
	nodeNames = sim.NewNameSet([]string{"node"}, ".host", ".hostbus", ".rootTx", ".rootRx")
	slotNames = sim.NewNameSet([]string{"node", ".gpu"}, ".tx", ".rx")
)

// nodeSlabs holds the arrays nodes take their GPUs, slot links and path
// tables from: for NewNodes, one array of each kind for every node; for
// NewNode, none, so each node makes its own.
type nodeSlabs struct {
	gpus  sim.Slab[gpu.Device]
	links sim.Slab[*sim.Link]
	paths sim.Slab[*sim.Path]
}

// NewNode builds a node with ngpus GPUs using the given calibrations.
// Every link exists from the start; the H2D, D2H and P2P paths over
// them are built on first use.
func NewNode(eng *sim.Engine, id, ngpus int, gp gpu.Params, p Params) *Node {
	n := new(Node)
	n.init(eng, id, ngpus, gp, p, new(nodeSlabs))
	return n
}

// NewNodes builds count nodes of ngpus GPUs each, with ids 0 to count-1,
// as NewNode builds one, in one array, and their GPUs, slot links and
// path tables in one array of each kind. It calls then with each node
// once the node is built, before it builds the next: what then builds
// on the engine — the node's HCA, say — takes its place in link order
// as if the nodes were built one by one.
func NewNodes(eng *sim.Engine, count, ngpus int, gp gpu.Params, p Params, then func(n *Node)) []Node {
	nodes := make([]Node, count)
	var sl nodeSlabs
	sl.gpus.Reserve(count * ngpus)
	sl.links.Reserve(count * 2 * ngpus)
	sl.paths.Reserve(count * ngpus * (ngpus + 2))
	for i := range nodes {
		nodes[i].init(eng, i, ngpus, gp, p, &sl)
		then(&nodes[i])
	}
	return nodes
}

// Capacity counts what count nodes of ngpus GPUs each build on their
// engine (see sim.Engine.Reserve): their links and DRAM ports, and every
// H2D, D2H and P2P path with its two hops.
func Capacity(count, ngpus int) sim.Capacity {
	paths := count * ngpus * (ngpus + 1)
	return sim.Capacity{Links: count * (3 + 2*ngpus), Resources: count * ngpus, Paths: paths, Hops: 2 * paths}
}

// init makes n node id, taking its arrays from sl.
func (n *Node) init(eng *sim.Engine, id, ngpus int, gp gpu.Params, p Params, sl *nodeSlabs) {
	names := nodeNames.Of(id)
	links, paths := sl.links.TakeN(2*ngpus), sl.paths.TakeN(ngpus*(ngpus+2))
	*n = Node{
		eng:    eng,
		id:     id,
		params: p,
		bus:    eng.NewLink(names[1], p.HostBusRawGBps, 100*sim.Nanosecond),
		rootTx: eng.NewLink(names[2], p.RootGBps, p.HopLatency),
		rootRx: eng.NewLink(names[3], p.RootGBps, p.HopLatency),
		gpus:   sl.gpus.TakeN(ngpus),
		gpuTx:  links[:ngpus],
		gpuRx:  links[ngpus:],
		h2d:    paths[:ngpus],
		d2h:    paths[ngpus : 2*ngpus],
		p2p:    paths[2*ngpus:],
	}
	n.host.Init(names[0], mem.Host, p.HostMemBytes)
	for i := range n.gpus {
		d := &n.gpus[i]
		d.Init(eng, i, gp)
		slot := slotNames.Of(id, i)
		tx := eng.NewLink(slot[0], p.SlotGBps, p.HopLatency)
		rx := eng.NewLink(slot[1], p.SlotGBps, p.HopLatency)
		// The copy-engine shortcuts on the device point at the slot
		// links; full paths via the root are built by H2D/D2H.
		d.H2D, d.D2H = rx, tx
		n.gpuTx[i], n.gpuRx[i] = tx, rx
	}
}

// Engine returns the simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// ID returns the node index within the cluster.
func (n *Node) ID() int { return n.id }

// Params returns the interconnect calibration.
func (n *Node) Params() Params { return n.params }

// Host returns the node's host memory space.
func (n *Node) Host() *mem.Space { return &n.host }

// Release recycles the backing storage of the node's host memory and
// of every GPU's device memory (see mem.Space.Release). The node must
// not be used afterwards.
func (n *Node) Release() {
	n.host.Release()
	for i := range n.gpus {
		n.gpus[i].Release()
	}
}

// FootprintBytes returns the real memory backing the node's simulated
// spaces: host DRAM plus every GPU's device memory (see
// mem.Space.FootprintBytes).
func (n *Node) FootprintBytes() int64 {
	total := n.host.FootprintBytes()
	for i := range n.gpus {
		total += n.gpus[i].Mem().FootprintBytes()
	}
	return total
}

// NumGPUs returns the number of GPUs.
func (n *Node) NumGPUs() int { return len(n.gpus) }

// GPU returns device i.
func (n *Node) GPU(i int) *gpu.Device { return &n.gpus[i] }

// HostBus returns the host memory bus (raw bytes: charge 2n per copy).
func (n *Node) HostBus() *sim.Link { return n.bus }

// H2D returns the host-to-device path for GPU i.
func (n *Node) H2D(i int) *sim.Path {
	if n.h2d[i] == nil {
		n.h2d[i] = sim.NewPath(n.rootTx, n.gpuRx[i])
	}
	return n.h2d[i]
}

// D2H returns the device-to-host path for GPU i.
func (n *Node) D2H(i int) *sim.Path {
	if n.d2h[i] == nil {
		n.d2h[i] = sim.NewPath(n.gpuTx[i], n.rootRx)
	}
	return n.d2h[i]
}

// P2P returns the peer-to-peer path from GPU i to GPU j, bypassing the
// root complex. It panics for i == j (use gpu.Device.CopyD2D).
func (n *Node) P2P(i, j int) *sim.Path {
	if i == j {
		panic("pcie: P2P requires distinct GPUs")
	}
	k := i*len(n.gpus) + j
	if n.p2p[k] == nil {
		n.p2p[k] = sim.NewPath(n.gpuTx[i], n.gpuRx[j])
	}
	return n.p2p[k]
}

// SlotTx returns GPU i's transmit link (used by zero-copy kernels whose
// writes flow device-to-host).
func (n *Node) SlotTx(i int) *sim.Link { return n.gpuTx[i] }

// SlotRx returns GPU i's receive link (zero-copy reads, host-to-device).
func (n *Node) SlotRx(i int) *sim.Link { return n.gpuRx[i] }

// HostCopy moves n bytes between two host buffers on the calling process,
// charging 2n raw bytes on the host bus. An injected copy fault fails
// before any byte moves, so a retry is idempotent.
func (n *Node) HostCopy(p *sim.Proc, dst, src mem.Buffer) error {
	if dst.Len() != src.Len() {
		panic("pcie: HostCopy length mismatch")
	}
	if err := n.faults.Check(p, fault.PCIeCopy, src.Len()); err != nil {
		return err
	}
	n.bus.Transfer(p, 2*src.Len())
	mem.Copy(dst, src)
	return nil
}

// DeviceOf returns the GPU owning the given device-memory space, or -1
// for host memory or a space from another node.
func (n *Node) DeviceOf(s *mem.Space) int {
	for i := range n.gpus {
		if n.gpus[i].Mem() == s {
			return i
		}
	}
	return -1
}
