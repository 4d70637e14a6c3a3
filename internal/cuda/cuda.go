// Package cuda provides a CUDA-runtime-shaped API over the simulated GPU
// and PCIe substrates: memory copies (including cudaMemcpy2D with its
// pitch-alignment behaviour), streams and events (re-exported from gpu),
// page-locked host memory, and IPC memory handles with one-time map cost
// and caching. Kernels are launched on the gpu.Device directly.
//
// One Ctx corresponds to one process's CUDA context on one node.
package cuda

import (
	"fmt"

	"gpuddt/internal/fault"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Ctx is a per-process CUDA context.
type Ctx struct {
	node *pcie.Node
	ipc  map[ipcKey]bool // handles already mapped (cost paid), made on the first
}

type ipcKey struct {
	dev  int
	addr int64
}

// NewCtx creates a context on the given node.
func NewCtx(node *pcie.Node) *Ctx {
	c := new(Ctx)
	c.Init(node)
	return c
}

// Init makes c, a field of a larger record, the context NewCtx would
// return.
func (c *Ctx) Init(node *pcie.Node) { *c = Ctx{node: node} }

// Node returns the node the context lives on.
func (c *Ctx) Node() *pcie.Node { return c.node }

// Engine returns the simulation engine.
func (c *Ctx) Engine() *sim.Engine { return c.node.Engine() }

// Malloc allocates device memory on GPU dev (cudaMalloc; 256-byte
// aligned like the CUDA allocator).
func (c *Ctx) Malloc(dev int, n int64) mem.Buffer {
	return c.node.GPU(dev).Mem().Alloc(n, 256)
}

// MallocHost allocates page-locked host memory (cudaMallocHost).
func (c *Ctx) MallocHost(n int64) mem.Buffer {
	return c.node.Host().Alloc(n, 256)
}

// deviceOf classifies a buffer: GPU index, or -1 for host memory.
func (c *Ctx) deviceOf(b mem.Buffer) int {
	if b.Kind() == mem.Host {
		return -1
	}
	d := c.node.DeviceOf(b.Space())
	if d < 0 {
		panic(fmt.Sprintf("cuda: buffer %v is not on node %d", b, c.node.ID()))
	}
	return d
}

// Memcpy copies synchronously on the calling process, inferring the
// direction from the buffer locations (cudaMemcpyDefault with UVA). An
// injected copy fault (fault.PCIeCopy) fails before any byte moves, so
// a retry is idempotent.
func (c *Ctx) Memcpy(p *sim.Proc, dst, src mem.Buffer) error {
	if dst.Len() != src.Len() {
		panic("cuda: Memcpy length mismatch")
	}
	n := src.Len()
	sd, dd := c.deviceOf(src), c.deviceOf(dst)
	h := p.BeginBytes(memcpySpan[copyDir(sd, dd)], n)
	defer h.End()
	if sd < 0 && dd < 0 {
		return c.node.HostCopy(p, dst, src) // charges its own cost, probes its own fault site
	}
	if err := c.node.Faults().Check(p, fault.PCIeCopy, n); err != nil {
		return err
	}
	ov := c.overheadFor(sd, dd)
	switch {
	case sd >= 0 && dd == sd:
		c.node.GPU(sd).CopyD2D(p, dst, src)
		return nil
	case sd < 0:
		p.Sleep(ov)
		c.node.H2D(dd).Transfer(p, n)
	case dd < 0:
		p.Sleep(ov)
		c.node.D2H(sd).Transfer(p, n)
	default:
		p.Sleep(ov)
		c.node.P2P(sd, dd).Transfer(p, n)
	}
	mem.Copy(dst, src)
	return nil
}

// dir is a copy direction; it indexes the timeline span names.
type dir int

const (
	h2h dir = iota
	h2d
	d2h
	d2d
	p2p
)

var (
	memcpySpan   = [...]string{h2h: "cuda.memcpy.h2h", h2d: "cuda.memcpy.h2d", d2h: "cuda.memcpy.d2h", d2d: "cuda.memcpy.d2d", p2p: "cuda.memcpy.p2p"}
	memcpy2DSpan = [...]string{h2h: "cuda.memcpy2d.h2h", h2d: "cuda.memcpy2d.h2d", d2h: "cuda.memcpy2d.d2h", d2d: "cuda.memcpy2d.d2d", p2p: "cuda.memcpy2d.p2p"}
)

// copyDir classifies a copy between two endpoints (host = -1).
func copyDir(sd, dd int) dir {
	switch {
	case sd < 0 && dd < 0:
		return h2h
	case sd < 0:
		return h2d
	case dd < 0:
		return d2h
	case sd == dd:
		return d2d
	default:
		return p2p
	}
}

// overheadFor returns the per-call driver overhead for a copy between
// the given endpoints (host = -1).
func (c *Ctx) overheadFor(sd, dd int) sim.Time {
	d := sd
	if d < 0 {
		d = dd
	}
	if d < 0 {
		return 0
	}
	return c.node.GPU(d).Params().MemcpyOverhead
}

// MemcpyAsync enqueues the copy on a stream (cudaMemcpyAsync) and returns
// a future completing when the data has arrived. Async copies do not
// participate in fault recovery: an injected fault on this path is fatal
// (the PML's recoverable paths all use the synchronous form).
func (c *Ctx) MemcpyAsync(s *gpu.Stream, dst, src mem.Buffer) *sim.Future {
	return s.Submit("memcpyAsync", func(p *sim.Proc) {
		if err := c.Memcpy(p, dst, src); err != nil {
			panic(fmt.Sprintf("cuda: MemcpyAsync: %v", err))
		}
	})
}

// Memcpy2D copies height rows of width bytes with independent pitches
// (cudaMemcpy2D). The performance model reproduces the published
// behaviour: PCIe-crossing copies run near path peak when width is a
// 64-byte multiple and collapse otherwise, with a per-row descriptor
// cost; intra-device copies behave like a coalescing-limited kernel.
func (c *Ctx) Memcpy2D(p *sim.Proc, dst mem.Buffer, dpitch int64, src mem.Buffer, spitch int64, width, height int64) error {
	if width > dpitch || width > spitch {
		panic("cuda: Memcpy2D width exceeds pitch")
	}
	sd, dd := c.deviceOf(src), c.deviceOf(dst)
	n := width * height
	h := p.BeginBytes(memcpy2DSpan[copyDir(sd, dd)], n)
	defer h.End()
	if err := c.node.Faults().Check(p, fault.PCIeCopy, n); err != nil {
		return err
	}
	switch {
	case sd >= 0 && dd == sd:
		d := c.node.GPU(sd)
		gp := d.Params()
		p.Sleep(gp.MemcpyOverhead)
		warp := gp.WarpBytes
		raw := height * (width + (width+warp-1)/warp*warp)
		rate := gp.DRAMRawGBps * gp.Memcpy2DAlignedEff
		p.Sleep(sim.TimeForBytes(raw, rate))
	default:
		var path *sim.Path
		var gp gpu.Params
		switch {
		case sd < 0 && dd < 0:
			panic("cuda: host-to-host Memcpy2D not modeled")
		case sd < 0:
			path, gp = c.node.H2D(dd), c.node.GPU(dd).Params()
		case dd < 0:
			path, gp = c.node.D2H(sd), c.node.GPU(sd).Params()
		default:
			path, gp = c.node.P2P(sd, dd), c.node.GPU(sd).Params()
		}
		eff := gp.Memcpy2DAlignedEff
		if width%64 != 0 {
			eff = gp.Memcpy2DMisalignedEff
		}
		p.Sleep(gp.MemcpyOverhead + sim.Time(height)*gp.Memcpy2DPerRow)
		// Inflate the byte count so link occupancy reflects the
		// efficiency loss (strided DMA descriptors waste wire slots).
		path.Transfer(p, int64(float64(n)/eff))
	}
	copy2D(dst, dpitch, src, spitch, width, height)
	return nil
}

// Memcpy2DAsync is Memcpy2D on a stream. As with MemcpyAsync, an
// injected fault on the async path is fatal rather than recoverable.
func (c *Ctx) Memcpy2DAsync(s *gpu.Stream, dst mem.Buffer, dpitch int64, src mem.Buffer, spitch int64, width, height int64) *sim.Future {
	return s.Submit("memcpy2DAsync", func(p *sim.Proc) {
		if err := c.Memcpy2D(p, dst, dpitch, src, spitch, width, height); err != nil {
			panic(fmt.Sprintf("cuda: Memcpy2DAsync: %v", err))
		}
	})
}

// copy2D moves the rows. Both windows are resolved once; a row is then
// one slice expression per side, whose bounds check keeps it inside its
// buffer.
func copy2D(dst mem.Buffer, dpitch int64, src mem.Buffer, spitch int64, width, height int64) {
	d, s := dst.Bytes(), src.Bytes()
	for r := int64(0); r < height; r++ {
		copy(d[r*dpitch:r*dpitch+width], s[r*spitch:r*spitch+width])
	}
}

// IpcHandle names an exportable device allocation (cudaIpcGetMemHandle).
type IpcHandle struct {
	Node int
	Dev  int
	Addr int64
	Len  int64
}

// IpcGetMemHandle exports a device buffer for peer processes.
func (c *Ctx) IpcGetMemHandle(b mem.Buffer) IpcHandle {
	d := c.deviceOf(b)
	if d < 0 {
		panic("cuda: IPC handle of host memory")
	}
	return IpcHandle{Node: c.node.ID(), Dev: d, Addr: b.Addr(), Len: b.Len()}
}

// IpcOpenMemHandle maps a peer's device allocation into this context.
// The first open of a given allocation pays the map cost; repeat opens
// hit the cache (the paper's one-time RDMA connection establishment).
// An injected fault (fault.IPCOpen) fails the map — persistently when
// the plan marks the P2P path dead, which is the signal for the PML to
// downgrade zero-copy protocols to staged copy-in/out.
func (c *Ctx) IpcOpenMemHandle(p *sim.Proc, h IpcHandle) (mem.Buffer, error) {
	if h.Node != c.node.ID() {
		panic("cuda: IPC across nodes is not possible")
	}
	key := ipcKey{dev: h.Dev, addr: h.Addr}
	if !c.ipc[key] {
		if err := c.node.Faults().Check(p, fault.IPCOpen, h.Len); err != nil {
			return mem.Buffer{}, err
		}
		p.Count("ipc.map.miss", 1)
		sp := p.BeginBytes("ipc.open", h.Len)
		p.Sleep(c.node.Params().IPCMapCost)
		sp.End()
		if c.ipc == nil {
			c.ipc = make(map[ipcKey]bool)
		}
		c.ipc[key] = true
	} else {
		p.Count("ipc.map.hit", 1)
	}
	return c.node.GPU(h.Dev).Mem().BufferAt(h.Addr, h.Len), nil
}
