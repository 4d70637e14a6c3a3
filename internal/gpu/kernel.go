package gpu

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// KernelKind selects the cost model for a pack/unpack kernel.
type KernelKind uint8

const (
	// VectorKernel is the specialized blocklength/stride kernel of §3.1:
	// a regular grid, no descriptor fetches, 8-byte accesses with
	// prologue/epilogue alignment handling.
	VectorKernel KernelKind = iota
	// DEVKernel is the generic kernel of §3.2 driven by an array of
	// cuda_dev_dist work units; partial and misaligned units pay extra
	// memory transactions and divergence.
	DEVKernel
)

// Unit is a run of More+1 contiguous copies performed by a kernel, each
// of Len bytes: the first from Src+SrcOff to Dst+DstOff of the owning
// Kernel, and each next one Len bytes further on the contiguous side and
// Stride bytes further on the scattered side (see Kernel.Unpack). For a
// pack operation the destination side is the contiguous buffer; for
// unpack the source side is. The zero More and Stride are one copy.
// Partial marks copies shorter than the full CUDA-DEV split size S, or
// cut by a window: a vector's cut blocks are partial units too, and the
// vector kernel, whose cost and copy ignore the flag, prices them as
// whole ones.
type Unit struct {
	SrcOff, DstOff int64
	Len            int32
	More           int32 // copies after the first
	Stride         int32 // scattered-side step between copies
	Partial        bool
}

// unitPool recycles descriptor arrays between kernel launches: a figure
// sweep issues millions of launches and the arrays are the last
// steady-state allocation on the pack path. It holds *[]Unit, each the
// address of the spent field of a kernel that has run, so returning an
// array allocates nothing.
var unitPool sync.Pool

// GetUnits returns a descriptor slice of length n, reusing the array of
// a completed kernel when one is large enough. Entries hold stale data;
// the caller must assign every element. Ownership passes to the Kernel:
// run() returns the slice to the pool, so neither the caller nor anyone
// else may touch Units after the kernel's future resolves.
func GetUnits(n int) []Unit {
	if v := unitPool.Get(); v != nil {
		slot := v.(*[]Unit)
		s := *slot
		*slot = nil
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]Unit, n)
}

// Kernel describes one pack or unpack kernel launch. Units reference the
// Src and Dst base buffers by offset, keeping descriptors compact (as the
// cuda_dev_dist array does in the paper). A Kernel is one launch and
// carries it: Launch or LaunchZeroCopy fills in what the stream worker
// needs and queues the record itself, so a second launch of the same
// Kernel panics — unless the record is a kept one, re-armed by Rearm
// once its last launch has completed.
type Kernel struct {
	Kind KernelKind
	// Unpack marks a kernel whose contiguous side is Src: a run's
	// copies step by Stride on Dst and by Len on Src. A pack's step by
	// Stride on Src and by Len on Dst.
	Unpack bool
	kept   bool // re-armed by Rearm: spent is the record's own array
	Src    mem.Buffer
	Dst    mem.Buffer
	Units  []Unit

	// spent is Units' array once run() is done with it. For a record
	// launched once it is the record's unitPool slot; a kept record
	// holds on to it for its next launch instead.
	spent []Unit

	// The launch: its place on the stream and its completion (op), the
	// cost model's verdict, and for a zero-copy launch the link its
	// contiguous side crosses and the bytes charged there.
	op   streamOp
	dev  *Device // nil until launched
	raw  int64
	rate float64
	link *sim.Link
	wire int64
}

// Rearm readies k, a record its owner launches again and again, for its
// next launch, and returns k.Units resized to n for the caller to fill.
// The descriptor array is the record's own: it keeps its capacity from
// launch to launch and stays out of the pool until Retire, so a warmed
// record launches without allocating. A record's first array, and one
// that has to grow, come from GetUnits. Rearm panics while the last
// launch is in flight, and on a record last launched without Rearm (or
// retired), whose array the pool already holds.
func (k *Kernel) Rearm(n int) []Unit {
	if k.dev != nil && (!k.kept || !k.op.done.Done()) {
		panic("gpu: kernel re-armed in flight or after a one-shot launch")
	}
	units := k.spent
	if cap(units) < max(n, 1) {
		units = GetUnits(n)
	}
	*k = Kernel{Units: units[:n], kept: true}
	return k.Units
}

// Idle reports whether k has no launch in flight: it was never launched,
// or its last launch has completed. A kept record that is idle may be
// re-armed.
func (k *Kernel) Idle() bool { return k.dev == nil || k.op.done.Done() }

// Retire hands the descriptor array of a kept record its owner is done
// with for good back to the pool, so the next owner's first Rearm — in a
// later simulation, say — finds it there. The record is spent afterwards:
// re-arming or launching it panics. A record that was never launched, or
// never kept, has nothing to hand back.
func (k *Kernel) Retire() {
	if !k.kept || k.dev == nil {
		return
	}
	if !k.op.done.Done() {
		panic("gpu: kernel retired in flight")
	}
	k.kept = false
	unitPool.Put(&k.spent)
}

// steps returns how far u's successive copies lie apart on the source
// and the destination side.
func (k *Kernel) steps(u *Unit) (src, dst int64) {
	if k.Unpack {
		return int64(u.Len), int64(u.Stride)
	}
	return int64(u.Stride), int64(u.Len)
}

// cost walks the descriptors once and returns the useful bytes the
// kernel moves and its raw DRAM traffic under the coalescing model: the
// contiguous side of each copy is fully coalesced (Len bytes), the
// scattered side costs whole warp iterations (Len rounded up to the warp
// width), and DEV copies pay penalties when misaligned or partial. A run
// is priced in closed form: its copies share Len and Partial, and their
// alignment repeats with the period misaligned finds. The caller derates
// raw by the kernel kind's efficiency. WarpBytes is a power of two
// (NewDevice checks), so rounding and alignment are masks.
func (d *Device) cost(k *Kernel) (useful, raw int64) {
	mask := d.p.WarpBytes - 1
	dev := k.Kind == DEVKernel
	src, dst := k.Src.Addr(), k.Dst.Addr()
	for i := range k.Units {
		u := &k.Units[i]
		n, reps := int64(u.Len), int64(u.More)+1
		useful += reps * n
		raw += reps * ((n + mask) &^ mask)
		if dev {
			a, b := src+u.SrcOff, dst+u.DstOff
			if u.More == 0 { // a ragged layout's runs are mostly single copies
				if (a|b)&mask != 0 {
					raw += d.p.MisalignPenaltyRaw
				}
			} else {
				ss, ds := k.steps(u)
				raw += misaligned(a, b, ss, ds, reps, mask) * d.p.MisalignPenaltyRaw
			}
			if u.Partial {
				raw += reps * d.p.PartialPenaltyRaw
			}
		}
	}
	return useful, raw + useful
}

// misaligned counts the copies j < reps of a run whose source a+j*sa or
// destination b+j*sb is off the warp grid (mask+1, a power of two). The
// pattern repeats every (mask+1)/lowbit((sa|sb)&mask) copies, a power of
// two, so one period is tested and the rest is multiplied out.
func misaligned(a, b, sa, sb, reps, mask int64) int64 {
	shift := 0 // log2 of the period
	if low := (sa | sb) & mask; low != 0 {
		shift = bits.Len64(uint64(mask)) - bits.TrailingZeros64(uint64(low))
	}
	period := int64(1) << shift
	whole, rest := reps>>shift, reps&(period-1)
	var per, head int64 // misaligned copies in one period, and in its first rest
	for j := int64(0); j < min(period, reps); j++ {
		if ((a+j*sa)|(b+j*sb))&mask != 0 {
			per++
			if j < rest {
				head++
			}
		}
	}
	return whole*per + head
}

func (d *Device) kernelEff(kind KernelKind) float64 {
	if kind == VectorKernel {
		return d.p.VectorKernelEff
	}
	return d.p.DEVKernelEff
}

// kernelRate is the raw throughput k achieves on the device's grid.
func (d *Device) kernelRate(k *Kernel) float64 {
	return d.kernelRawRate(d.availableBlocks(0)) * d.kernelEff(k.Kind)
}

// KernelTime predicts the execution time of k (excluding launch overhead)
// on the device's grid, for planning pipeline fragment sizes.
func (d *Device) KernelTime(k *Kernel) sim.Time {
	_, raw := d.cost(k)
	return sim.TimeForBytes(raw, d.kernelRate(k))
}

// The timeline span of a launch, by kernel kind.
var (
	kernelSpan   = [...]string{VectorKernel: "kernel.vector", DEVKernel: "kernel.dev"}
	zeroCopySpan = [...]string{VectorKernel: "kernel.zerocopy.vector", DEVKernel: "kernel.zerocopy.dev"}
)

// Launch submits kernel k to stream s. The returned future completes when
// the kernel has executed: launch overhead, DRAM occupancy per the cost
// model, and the actual byte movement of every unit.
func (d *Device) Launch(s *Stream, k *Kernel) *sim.Future {
	return d.enqueue(s, k, kernelSpan[k.Kind], nil, 0)
}

// LaunchZeroCopy submits kernel k whose contiguous side is not in this
// device's memory: a mapped host buffer (CUDA UMA zero copy) or a peer
// GPU's memory. The data crosses link as part of kernel execution,
// overlapping the transfer with the scattered-side DRAM accesses.
// wireBytes is the PCIe traffic charged on the link — pass more than
// the kernel's useful bytes to model inefficient access patterns (e.g.
// scattered reads from remote device memory). The link is held for the
// longer of the kernel time and the wire time, as on real hardware where
// the slower side throttles the other.
func (d *Device) LaunchZeroCopy(s *Stream, k *Kernel, link *sim.Link, wireBytes int64) *sim.Future {
	return d.enqueue(s, k, zeroCopySpan[k.Kind], link, wireBytes)
}

// enqueue prices k and puts it on s.
func (d *Device) enqueue(s *Stream, k *Kernel, label string, link *sim.Link, wire int64) *sim.Future {
	if k.dev != nil {
		panic("gpu: kernel launched twice")
	}
	useful, raw := d.cost(k)
	k.dev, k.raw, k.rate, k.link, k.wire = d, raw, d.kernelRate(k), link, wire
	k.op = streamOp{label: label, bytes: useful, kernel: k}
	return s.enqueue(&k.op)
}

// exec is the launch on the stream worker.
func (k *Kernel) exec(p *sim.Proc) {
	d := k.dev
	d.launchGate(p, k.op.bytes)
	if k.link == nil {
		d.chargeDRAM(p, k.raw, k.rate)
		k.run()
		d.kernelsRun++
		return
	}
	hold := sim.TimeForBytes(k.raw, k.rate)
	if wire := k.link.OccupancyFor(k.wire); wire > hold {
		hold = wire
	}
	k.link.HoldFor(p, k.wire, hold)
	p.Sleep(k.link.Latency())
	k.run()
	d.kernelsRun++
}

// Compute submits a memory-bound compute kernel (e.g. a reduction
// combine) that touches raw bytes of DRAM traffic without moving data;
// the caller performs any byte manipulation after awaiting the future.
func (d *Device) Compute(s *Stream, raw int64, blocks int) *sim.Future {
	rate := d.kernelRawRate(d.availableBlocks(blocks))
	return s.Submit("kernel.compute", func(p *sim.Proc) {
		d.launchGate(p, raw)
		d.chargeDRAM(p, raw, rate)
		d.kernelsRun++
	})
}

// run moves the bytes of every unit. Called at kernel completion time so
// no process can observe partially written data earlier in virtual time.
// Both windows are resolved once; a run is one strided loop, and each
// copy is one slice expression per side, whose bounds check is what
// keeps it inside its buffer. The descriptor array is recycled
// afterwards (see GetUnits), or kept by a kept record (see Rearm).
func (k *Kernel) run() {
	src, dst := k.Src.Bytes(), k.Dst.Bytes()
	for i := range k.Units {
		u := &k.Units[i]
		s, d, n := u.SrcOff, u.DstOff, int64(u.Len)
		ss, ds := k.steps(u)
		if n == 8 {
			// The transpose's copy: one load and one store, no memmove call.
			for j := u.More; j >= 0; j-- {
				binary.LittleEndian.PutUint64(dst[d:d+8], binary.LittleEndian.Uint64(src[s:s+8]))
				s, d = s+ss, d+ds
			}
			continue
		}
		for j := u.More; j >= 0; j-- {
			copy(dst[d:d+n], src[s:s+n])
			s, d = s+ss, d+ds
		}
	}
	k.spent, k.Units = k.Units[:0], nil
	if !k.kept {
		unitPool.Put(&k.spent)
	}
}
