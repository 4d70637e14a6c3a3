package gpu

import (
	"fmt"

	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Device is one simulated GPU: device memory, a DRAM port shared by all
// on-device traffic, DMA copy engines toward the host (wired up by the
// PCIe topology), and SM-limited kernel execution.
type Device struct {
	eng  *sim.Engine
	id   int
	p    Params
	mem  mem.Space
	dram *sim.Resource

	// H2D and D2H are the PCIe copy-engine links toward host memory,
	// installed by the pcie topology builder. Nil until wired.
	H2D, D2H *sim.Link

	blockCap   int     // kernel grid cap (0 = no cap beyond DefaultBlocks)
	bgBlocks   int     // CUDA blocks held by a background application (§5.4)
	bgDRAMFrac float64 // DRAM fraction consumed by the background app
	faults     *fault.Injector

	kernelsRun int64
}

// deviceNames are a device's memory space and DRAM port, by device id.
var deviceNames = sim.NewNameSet([]string{"gpu"}, "", ".dram")

// Init makes d, an element of a larger array (a node's GPUs), a GPU
// with the given calibration profile. It panics unless WarpBytes is a
// power of two: the kernel cost model rounds and tests alignment with
// masks.
func (d *Device) Init(eng *sim.Engine, id int, p Params) {
	if p.WarpBytes <= 0 || p.WarpBytes&(p.WarpBytes-1) != 0 {
		panic(fmt.Sprintf("gpu: WarpBytes %d is not a power of two", p.WarpBytes))
	}
	names := deviceNames.Of(id)
	*d = Device{eng: eng, id: id, p: p, dram: eng.NewResource(names[1], 1)}
	d.mem.Init(names[0], mem.Device, p.MemBytes)
}

// ID returns the device index within its node.
func (d *Device) ID() int { return d.id }

// Params returns the calibration profile.
func (d *Device) Params() Params { return d.p }

// Mem returns the device memory space.
func (d *Device) Mem() *mem.Space { return &d.mem }

// Release recycles the device memory's backing storage (see
// mem.Space.Release). The device must not be used afterwards.
func (d *Device) Release() { d.mem.Release() }

// KernelsRun returns the number of kernels executed so far.
func (d *Device) KernelsRun() int64 { return d.kernelsRun }

// SetFaults installs a fault injector; kernel launches may then fail
// and be retried autonomously (see launchGate). Nil disables injection.
func (d *Device) SetFaults(in *fault.Injector) { d.faults = in }

// launchGate models the driver's launch attempt under fault injection:
// an injected launch failure is retried on the stream with capped
// exponential backoff — recovery is autonomous, without host-side help,
// as in NIC-offloaded designs — so only its latency, never the error,
// escapes the device. Each attempt charges the launch overhead; the
// return means the kernel is running. Exhausting the budget is fatal:
// at any transient rate the probability is negligible, and a persistent
// launch fault means the device itself is gone.
func (d *Device) launchGate(p *sim.Proc, bytes int64) {
	for attempt := 0; ; attempt++ {
		p.Sleep(d.p.KernelLaunch)
		err := d.faults.Check(p, fault.KernelLaunch, bytes)
		if err == nil {
			return
		}
		if attempt+1 >= fault.MaxAttempts {
			panic(fmt.Sprintf("gpu%d: kernel launch failed after %d attempts: %v", d.id, attempt+1, err))
		}
		p.Count("gpu.launch.retry", 1)
		p.Sleep(fault.Backoff(attempt))
	}
}

// SetBlockCap restricts pack/unpack kernels to at most n CUDA blocks
// (the §5.3 "minimal resources" experiment). n <= 0 removes the cap.
func (d *Device) SetBlockCap(n int) { d.blockCap = n }

// SetBackgroundLoad models a co-resident GPU-intensive application
// (§5.4): it permanently occupies blocks CUDA blocks and consumes
// dramFrac of the raw DRAM bandwidth.
func (d *Device) SetBackgroundLoad(blocks int, dramFrac float64) {
	if blocks < 0 || dramFrac < 0 || dramFrac >= 1 {
		panic("gpu: invalid background load")
	}
	d.bgBlocks = blocks
	d.bgDRAMFrac = dramFrac
}

// availableBlocks resolves a requested grid size against caps and the
// background application's footprint. At least one block is always
// schedulable (the background app time-slices).
func (d *Device) availableBlocks(requested int) int {
	avail := d.p.DefaultBlocks - d.bgBlocks
	if d.blockCap > 0 && d.blockCap < avail {
		avail = d.blockCap
	}
	if avail < 1 {
		avail = 1
	}
	if requested > 0 && requested < avail {
		return requested
	}
	return avail
}

// dramRawRate returns the raw DRAM bandwidth available to foreground
// work, in GB/s.
func (d *Device) dramRawRate() float64 {
	return d.p.DRAMRawGBps * (1 - d.bgDRAMFrac)
}

// kernelRawRate returns the raw throughput (GB/s) of a kernel running on
// the given number of blocks: SM-limited below the DRAM peak.
func (d *Device) kernelRawRate(blocks int) float64 {
	r := float64(blocks) * d.p.PerBlockRawGBps
	if peak := d.dramRawRate(); r > peak {
		r = peak
	}
	return r
}

// chargeDRAM occupies the device DRAM port for raw bytes of traffic at
// rate GB/s (rate is the kernel's achievable rate; if it is below the
// DRAM peak, the port is held only for the peak-rate portion so that
// concurrent streams can interleave, and the remainder is idle time).
func (d *Device) chargeDRAM(p *sim.Proc, raw int64, rate float64) {
	dramTime := sim.TimeForBytes(raw, d.dramRawRate())
	total := sim.TimeForBytes(raw, rate)
	d.dram.Acquire(p)
	p.Sleep(dramTime)
	d.dram.Release()
	if total > dramTime {
		p.Sleep(total - dramTime)
	}
}

// CopyD2D performs a synchronous intra-device copy on the calling
// process, charging memcpy overhead plus DRAM occupancy.
func (d *Device) CopyD2D(p *sim.Proc, dst, src mem.Buffer) {
	if dst.Len() != src.Len() {
		panic("gpu: CopyD2D length mismatch")
	}
	p.Sleep(d.p.MemcpyOverhead)
	d.chargeDRAM(p, 2*src.Len(), d.dramRawRate()*d.p.MemcpyD2DEff)
	mem.Copy(dst, src)
}
