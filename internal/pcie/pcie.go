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
	"strconv"

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
	host   *mem.Space
	bus    *sim.Link
	gpus   []*gpu.Device
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
	for _, d := range n.gpus {
		d.SetFaults(in)
	}
}

// Faults returns the node's fault injector (nil when none installed).
func (n *Node) Faults() *fault.Injector { return n.faults }

// NewNode builds a node with ngpus GPUs using the given calibrations.
// Every link exists from the start; the H2D, D2H and P2P paths over
// them are built on first use.
func NewNode(eng *sim.Engine, id, ngpus int, gp gpu.Params, p Params) *Node {
	prefix := "node" + strconv.Itoa(id)
	var names [4]string
	sim.Names(names[:], prefix, ".host", ".hostbus", ".rootTx", ".rootRx")
	n := &Node{
		eng:    eng,
		id:     id,
		params: p,
		host:   mem.NewSpace(names[0], mem.Host, p.HostMemBytes),
		bus:    eng.NewLink(names[1], p.HostBusRawGBps, 100*sim.Nanosecond),
		rootTx: eng.NewLink(names[2], p.RootGBps, p.HopLatency),
		rootRx: eng.NewLink(names[3], p.RootGBps, p.HopLatency),
		h2d:    make([]*sim.Path, ngpus),
		d2h:    make([]*sim.Path, ngpus),
		p2p:    make([]*sim.Path, ngpus*ngpus),
	}
	for i := 0; i < ngpus; i++ {
		d := gpu.NewDevice(eng, i, gp)
		sim.Names(names[:2], prefix+".gpu"+strconv.Itoa(i), ".tx", ".rx")
		tx := eng.NewLink(names[0], p.SlotGBps, p.HopLatency)
		rx := eng.NewLink(names[1], p.SlotGBps, p.HopLatency)
		// The copy-engine shortcuts on the device point at the slot
		// links; full paths via the root are built by H2D/D2H.
		d.H2D, d.D2H = rx, tx
		n.gpus = append(n.gpus, d)
		n.gpuTx = append(n.gpuTx, tx)
		n.gpuRx = append(n.gpuRx, rx)
	}
	return n
}

// Engine returns the simulation engine.
func (n *Node) Engine() *sim.Engine { return n.eng }

// ID returns the node index within the cluster.
func (n *Node) ID() int { return n.id }

// Params returns the interconnect calibration.
func (n *Node) Params() Params { return n.params }

// Host returns the node's host memory space.
func (n *Node) Host() *mem.Space { return n.host }

// Release recycles the backing storage of the node's host memory and
// of every GPU's device memory (see mem.Space.Release). The node must
// not be used afterwards.
func (n *Node) Release() {
	n.host.Release()
	for _, d := range n.gpus {
		d.Release()
	}
}

// FootprintBytes returns the real memory backing the node's simulated
// spaces: host DRAM plus every GPU's device memory (see
// mem.Space.FootprintBytes).
func (n *Node) FootprintBytes() int64 {
	total := n.host.FootprintBytes()
	for _, d := range n.gpus {
		total += d.Mem().FootprintBytes()
	}
	return total
}

// NumGPUs returns the number of GPUs.
func (n *Node) NumGPUs() int { return len(n.gpus) }

// GPU returns device i.
func (n *Node) GPU(i int) *gpu.Device { return n.gpus[i] }

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
	for i, d := range n.gpus {
		if d.Mem() == s {
			return i
		}
	}
	return -1
}
