package core

import (
	"sort"

	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// direction distinguishes pack (GPU data -> contiguous) from unpack.
type direction int

const (
	dirPack direction = iota
	dirUnpack
)

// Packer drives the pipelined packing of one (datatype, count) message
// into contiguous fragments, or the inverse. It is resumable: each
// PackWith call produces the next fragment, which is how the BTL
// protocols pipeline pack with transfer and unpack (§4).
//
// Device-resident data is moved by kernels. Every path produces a
// window's descriptors once, as direction-bound gpu.Units rebased to the
// fragment — runs of equal units (see Entry), split only where the
// window cuts them — in the shelved array the kernel then owns (see
// gpu.GetUnits)
// — or in the array of a kept kernel record: a synchronous call's
// borrowed worker's (see borrowed), a pipelined protocol's producer's or
// consumer's (PackWith, UnpackWith). A message whose list of runs is
// known has its windows cut from that list (listUnits): a vector's is
// one run, the (blocklen, stride, count) of the vector kernel, whose
// cut blocks are partial units the vector kernel prices as whole ones;
// a DEV-cache hit's is the resident list. The converting path cuts
// them from the tail of the list it is building. The kernel gets a
// copy, never a view of a list: an entry is not bound to a direction,
// and a kernel unit is, with its packed offset rebased to the fragment.
// Host-resident data is moved by the CPU (see cpuMove): no kernel, no
// descriptors, no cache lookup.
type Packer struct {
	e    *Engine
	data mem.Buffer
	conv datatype.Converter
	dt   *datatype.Datatype
	cnt  int
	dir  direction

	// The list path: list is the message's runs, moved by kernels of
	// kind — vrun, a vector's one run, or a DEV-cache hit's entries —
	// and nil on a miss.
	list []Entry
	kind gpu.KernelKind
	vrun [1]Entry
	ci   int // run of list the next sequential window starts in

	// The converting path (a cache miss): building is the message's
	// list of runs so far, stored in the DEV cache on completion while
	// caching holds; once it does not, building is per-chunk scratch.
	building []Entry
	caching  bool
}

// InitPacker makes pk, which may be held by value in a larger record (a
// pipelined protocol's producer), the packer of count elements of dt
// laid out over data (device or host memory whose byte 0 is the datatype
// origin), positioned at the message's start.
func (e *Engine) InitPacker(pk *Packer, data mem.Buffer, dt *datatype.Datatype, count int) {
	pk.init(e, data, dt, count, dirPack)
}

// InitUnpacker is InitPacker for the inverse operation: scattering
// contiguous fragments into the layout over data.
func (e *Engine) InitUnpacker(pk *Packer, data mem.Buffer, dt *datatype.Datatype, count int) {
	pk.init(e, data, dt, count, dirUnpack)
}

// init makes pk the worker of one message, positioned at its start.
// Host data takes neither the vector run nor the DEV cache: the CPU
// moves it through the converter alone.
func (pk *Packer) init(e *Engine, data mem.Buffer, dt *datatype.Datatype, count int, dir direction) {
	*pk = Packer{e: e, data: data, dt: dt, cnt: count, dir: dir, kind: gpu.DEVKernel}
	pk.conv.Init(dt, count)
	if data.Kind() == mem.Host {
		return
	}
	if v, ok := dt.Vector(count); ok && !e.opts.DisableVectorKernel && pk.vector(&v) {
		return
	}
	if c := e.lookupCache(dt, count); c != nil {
		pk.list = c.entries
		e.cacheHits++
	} else {
		pk.caching = !e.opts.NoCacheDEV
	}
}

// vector makes the vector v the packer's list, one run of its blocks
// for the vector kernel, and reports whether that run fits an Entry:
// its block length, stride and block count within 32 bits.
func (pk *Packer) vector(v *datatype.CanonVec) bool {
	if !fits32(v.BlockLen) || !fits32(v.InnerStride) || !fits32(v.Inner-1) {
		return false
	}
	r := &pk.vrun[0]
	*r = Entry{MemOff: v.Off, Len: int32(v.BlockLen)}
	if v.Inner > 1 {
		r.More, r.Stride = int32(v.Inner-1), int32(v.InnerStride)
	}
	pk.list, pk.kind = pk.vrun[:], gpu.VectorKernel
	return true
}

// borrowed is a worker lent to a call that is done with it when it
// returns — a whole-message pack or unpack, a fused launch — together
// with the kernel record that call launches last. The call awaits that
// kernel before it hands both back (giveBack), so the record is complete
// when it is re-armed, and its descriptor array, the record's own, keeps
// its capacity from call to call. The record is here and not in Packer:
// a pipelined worker's kernels are kept by its owner, the protocol's
// producer or consumer, which may have several in flight.
type borrowed struct {
	pk Packer
	k  gpu.Kernel
}

// borrow returns an idle borrowed worker, or a new one; the caller
// inits its Packer.
func (e *Engine) borrow() *borrowed {
	n := len(e.idle)
	if n == 0 {
		return new(borrowed)
	}
	b := e.idle[n-1]
	e.idle = e.idle[:n-1]
	return b
}

func (e *Engine) giveBack(b *borrowed) { e.idle = append(e.idle, b) }

// Release hands the descriptor arrays of the engine's idle workers back
// to the descriptor shelf, where the engines of the next simulation find
// them (see gpu.Kernel.Retire). Call it once the engine is done; a call
// that borrows a worker afterwards starts from an empty one.
func (e *Engine) Release() {
	for _, b := range e.idle {
		b.k.Retire()
	}
	e.idle = nil
}

// Total returns the packed size of the message.
func (pk *Packer) Total() int64 { return pk.conv.Total() }

// SeekTo repositions the packer at packed offset pos, so a recovery
// protocol can replay fragments after a fault without rebuilding the
// worker (the converter seek is O(1)/O(log B), never a replay). A DEV
// cache under construction is abandoned — replayed windows would append
// duplicate entries — so a rewound first pass simply does not populate
// the cache; a later transfer of the same (dt, count) will.
func (pk *Packer) SeekTo(pos int64) {
	pk.conv.SeekTo(pos)
	pk.caching = false
	pk.building = nil
}

// PackWith packs the next min(len(frag), Remaining()) bytes into frag
// and returns the byte count and a future that completes when frag holds
// the data. For device data, frag may be device memory (the kernel
// writes in-GPU) or host memory (the zero-copy path: the kernel streams
// over PCIe); work is submitted to the engine's stream, and CPU-side
// conversion overlaps with previously launched kernels (the §3.2
// pipeline). k, when not nil, is a kept kernel record the caller owns
// (see gpu.Kernel.Rearm) whose last launch has completed: the window's
// last launch is made from it, so a warmed pipelined worker launches
// without allocating, and for a window that is not empty the returned
// future is k's until the caller launches from k again. For host data
// the CPU has moved the bytes by the time PackWith returns, and the
// future is complete.
func (pk *Packer) PackWith(p *sim.Proc, frag mem.Buffer, k *gpu.Kernel) (int64, *sim.Future) {
	if pk.dir != dirPack {
		panic("core: PackWith on an unpacker")
	}
	return pk.process(p, frag, k)
}

// UnpackWith scatters the next min(len(frag), Remaining()) bytes of frag
// into the data layout, as PackWith.
func (pk *Packer) UnpackWith(p *sim.Proc, frag mem.Buffer, k *gpu.Kernel) (int64, *sim.Future) {
	if pk.dir != dirUnpack {
		panic("core: UnpackWith on a packer")
	}
	return pk.process(p, frag, k)
}

// process moves the window's bytes: on the CPU for host data, else by
// the window's kernels. own, when not nil, is the caller's kernel record
// (see borrowed): the window's last launch is made from it, the others —
// and every launch when own is nil — from a kernel of their own.
func (pk *Packer) process(p *sim.Proc, frag mem.Buffer, own *gpu.Kernel) (int64, *sim.Future) {
	n := frag.Len()
	if r := pk.conv.Remaining(); n > r {
		n = r
	}
	if pk.data.Kind() == mem.Host {
		pk.e.chargeCPU(p, n)
		cpuMove(&pk.conv, pk.dir, pk.data, frag.Slice(0, n))
		return n, cpuDone
	}
	if n == 0 {
		f := pk.e.ctx.Engine().NewFuture()
		f.Complete(nil)
		return 0, f
	}
	if pk.list == nil {
		return n, pk.convertAndLaunch(p, n, frag, own)
	}
	start := pk.conv.Packed()
	units := pk.listUnits(start, n, own)
	pk.conv.SeekTo(start + n)
	return n, pk.launch(own, pk.kind, units, n, frag)
}

// cpuDone is the future of every CPU move: the bytes have moved when the
// call returns. It is complete from the start, so awaiting it returns at
// once and touches nothing, and every engine can share it.
var cpuDone = func() *sim.Future {
	f := sim.NewEngine().NewFuture()
	f.Complete(nil)
	return f
}()

// chargeCPU charges the node's host bus for the CPU moving n bytes of
// host-resident data into or out of packed form: a read and a write of
// each. It is charged before the bytes move (see cpuMove).
func (e *Engine) chargeCPU(p *sim.Proc, n int64) {
	e.ctx.Node().HostBus().Transfer(p, 2*n)
}

// cpuMove moves the bytes of frag between host-resident data and frag
// with c, from c's position: the converter is the CPU's whole pack.
func cpuMove(c *datatype.Converter, dir direction, data, frag mem.Buffer) {
	if dir == dirPack {
		c.Pack(frag.Bytes(), data.Bytes())
	} else {
		c.Unpack(data.Bytes(), frag.Bytes())
	}
}

// getUnits returns a descriptor array of length n for a launch from own,
// or from a new kernel when own is nil.
func getUnits(own *gpu.Kernel, n int) []gpu.Unit {
	if own != nil {
		return own.Rearm(n)
	}
	return gpu.GetUnits(n)
}

// unit is the kernel unit, bound to the packer's direction, of a run of
// n copies of l bytes: the first at memOff in the layout and packOff in
// the fragment, each next one stride bytes further in the layout.
func (pk *Packer) unit(memOff, packOff int64, l int32, n, stride int64, partial bool) gpu.Unit {
	if n == 1 {
		stride = 0
	}
	u := gpu.Unit{SrcOff: memOff, DstOff: packOff, Len: l, More: int32(n - 1), Stride: int32(stride), Partial: partial}
	if pk.dir == dirUnpack {
		u.SrcOff, u.DstOff = packOff, memOff
	}
	return u
}

// listUnits binds the list's runs for the packed window, cutting the at
// most two that straddle its ends (see appendSpan). No conversion cost:
// a vector's run is its kernel's arguments, a cached list is already
// resident in GPU memory. PackOff is monotonic, so both ends of the
// window are found by search, not scan.
func (pk *Packer) listUnits(start, n int64, own *gpu.Kernel) []gpu.Unit {
	entries := pk.list
	end := start + n
	// Windows are usually sequential, continuing in run pk.ci. A
	// restart (retransmission, pipeline rewind) searches for its run.
	lo := pk.ci
	if lo >= len(entries) || entries[lo].PackOff > start || entries[lo].end() <= start {
		lo = sort.Search(len(entries), func(i int) bool { return entries[i].end() > start })
	}
	hi := lo + sort.Search(len(entries)-lo, func(i int) bool {
		return entries[lo+i].PackOff >= end
	})
	// Only the end runs can be cut, each into up to three units.
	units := getUnits(own, hi-lo+2)[:0]
	first, last := &entries[lo], &entries[hi-1]
	units = pk.appendSpan(units, first, start, min(end, first.end()), start)
	if hi-lo > 1 {
		k := len(units)
		units = units[:k+hi-lo-2]
		pk.bind(units[k:], entries[lo+1:hi-1], start)
		units = pk.appendSpan(units, last, last.PackOff, min(end, last.end()), start)
	}
	pk.ci = hi
	if last.end() > end {
		pk.ci = hi - 1
	}
	return units
}

// appendSpan appends the units that move packed bytes [a, b) of run e,
// rebased to a fragment that starts at fragStart: the run's whole units
// there as one run, and a unit the span cuts on its own, marked partial.
func (pk *Packer) appendSpan(units []gpu.Unit, e *Entry, a, b, fragStart int64) []gpu.Unit {
	if a == e.PackOff && b == e.end() {
		return append(units, pk.unit(e.MemOff, a-fragStart, e.Len, e.units(), int64(e.Stride), e.Partial))
	}
	l, stride := int64(e.Len), int64(e.Stride)
	j, off := (a-e.PackOff)/l, (a-e.PackOff)%l // the first unit, and the bytes cut from its head
	if off > 0 || b-a < l {
		take := min(l-off, b-a)
		units = append(units, pk.unit(e.MemOff+j*stride+off, a-fragStart, int32(take), 1, 0, true))
		a, j = a+take, j+1
	}
	if whole := (b - a) / l; whole > 0 {
		units = append(units, pk.unit(e.MemOff+j*stride, a-fragStart, e.Len, whole, stride, e.Partial))
		a, j = a+whole*l, j+whole
	}
	if a < b { // the last unit, cut at its tail
		units = append(units, pk.unit(e.MemOff+j*stride, a-fragStart, int32(b-a), 1, 0, true))
	}
	return units
}

// bind writes the kernel unit of each run for this packer's direction,
// with packed offsets rebased to a fragment that starts at fragStart.
func (pk *Packer) bind(units []gpu.Unit, entries []Entry, fragStart int64) {
	units = units[:len(entries)]
	for i := range entries {
		// Field by field: a unit built whole and then copied stalls on
		// its own stores.
		e, u := &entries[i], &units[i]
		u.SrcOff, u.DstOff, u.Len, u.More, u.Stride, u.Partial = e.MemOff, e.PackOff-fragStart, e.Len, e.More, e.Stride, e.Partial
		if pk.dir == dirUnpack {
			u.SrcOff, u.DstOff = u.DstOff, u.SrcOff
		}
	}
}

// convertAndLaunch runs the CPU conversion for the window in chunks,
// launching a kernel per chunk so conversion of chunk k+1 overlaps
// execution of chunk k when pipelining is enabled (§3.2). With
// pipelining disabled the full window is converted before one launch.
// The last chunk launches from own (see process).
func (pk *Packer) convertAndLaunch(p *sim.Proc, n int64, frag mem.Buffer, own *gpu.Kernel) *sim.Future {
	opts := &pk.e.opts
	var fut *sim.Future
	for converted := int64(0); converted < n; {
		m := opts.ChunkBytes
		if opts.NoPipeline {
			m = n
		}
		if rem := n - converted; m > rem {
			m = rem
		}
		k := own
		if converted+m < n {
			k = nil
		}
		chunkStart := pk.conv.Packed()
		entries := pk.convert(p, m)
		units := getUnits(k, len(entries))
		pk.bind(units, entries, chunkStart)
		fut = pk.launch(k, gpu.DEVKernel, units, m, frag.Slice(converted, m))
		converted += m
	}
	pk.converted()
	return fut
}

// convert runs the CPU conversion of the next m packed bytes, charging
// its cost and the upload of the descriptors to the device, and returns
// their runs. Runs go straight onto the list being built, a unit
// extending the chunk's last run when it continues it; the returned
// slice is the list's tail, valid until the next convert or converted
// call. The charges count units, as the device list holds them: pieces
// × convPerEntry, units × convPerUnit and units × entryDevBytes.
func (pk *Packer) convert(p *sim.Proc, m int64) []Entry {
	list := pk.building
	switch {
	case !pk.caching:
		list = list[:0]
	case list == nil:
		// Sized once, exactly, when the list is kept: the rest of the
		// message comes in chunks of m bytes, as a fragment pipeline's
		// windows and a whole message's chunks do.
		list = make([]Entry, 0, pk.countRuns(m))
	}
	r := runs{list: list, mark: len(list), unit: pk.e.opts.UnitSize}
	pieces := pk.emit(&r, &pk.conv, m)
	pk.building = r.list
	entries := r.list[r.mark:]
	// CPU cost of simulating the pack and emitting cuda_dev_dist
	// entries for this chunk.
	p.Sleep(sim.Time(pieces)*convPerEntry + sim.Time(r.units)*convPerUnit)
	pk.e.convUnits += r.units
	// Upload the descriptor array to the device.
	pk.e.ctx.Node().H2D(pk.e.dev.ID()).Transfer(p, r.units*entryDevBytes)
	return entries
}

// emit appends the runs of c's next m packed bytes to r, moves c on by
// them and returns how many pieces a converter walk emits there. A
// canonical layout's runs come by arithmetic (see runs.canon), with no
// walk.
func (pk *Packer) emit(r *runs, c *datatype.Converter, m int64) (pieces int64) {
	if cv := pk.dt.Canonical(); cv != nil {
		start := c.Packed()
		end := start + min(m, c.Remaining())
		c.SeekTo(end)
		return r.canon(cv, pk.dt.Extent(), start, end)
	}
	c.Advance(m, func(memOff, packOff, l int64) {
		pieces++
		r.piece(memOff, packOff, l)
	})
	return pieces
}

// countRuns returns how many runs the rest of the message makes when it
// is converted m bytes at a time: the length of the list convert builds.
func (pk *Packer) countRuns(m int64) int {
	c := pk.conv
	r := runs{unit: pk.e.opts.UnitSize, count: true}
	for !c.Done() {
		r.mark = r.n
		pk.emit(&r, &c, m)
	}
	return r.n
}

// converted hands a completed list to the DEV cache once the whole
// message has been converted, and drops it.
func (pk *Packer) converted() {
	if !pk.conv.Done() {
		return
	}
	if pk.caching {
		pk.e.storeCache(pk.dt, pk.cnt, pk.building)
	}
	pk.building = nil
}

// launch submits the kernel that moves a window's n bytes through units
// between the data layout and frag: k, re-armed for units, or a new one
// when k is nil.
func (pk *Packer) launch(k *gpu.Kernel, kind gpu.KernelKind, units []gpu.Unit, n int64, frag mem.Buffer) *sim.Future {
	return pk.e.launch(k, kind, pk.dir, pk.data, frag, units, n)
}

func (e *Engine) launch(k *gpu.Kernel, kind gpu.KernelKind, dir direction, data, frag mem.Buffer, units []gpu.Unit, n int64) *sim.Future {
	if k == nil {
		k = new(gpu.Kernel)
	}
	k.Kind, k.Src, k.Dst, k.Units = kind, data, frag, units
	if dir == dirUnpack {
		k.Unpack, k.Src, k.Dst = true, frag, data
	}
	dev, stream, node := e.dev, &e.stream, e.ctx.Node()
	switch {
	case frag.Space() == dev.Mem():
		return dev.Launch(stream, k)
	case dir == dirPack:
		// The contiguous side is mapped host memory (zero copy, §4.2) or
		// a peer GPU's memory (mapped via CUDA IPC): the writes stream
		// coalesced over the local transmit link.
		return dev.LaunchZeroCopy(stream, k, node.SlotTx(dev.ID()), n)
	case frag.Kind() == mem.Host:
		return dev.LaunchZeroCopy(stream, k, node.SlotRx(dev.ID()), n)
	default:
		// Direct remote unpacking issues many scattered reads and
		// under-utilizes PCIe (§5.2.1), modeled by inflating the wire
		// traffic by 1/remoteAccessEff.
		return dev.LaunchZeroCopy(stream, k, node.SlotRx(dev.ID()), int64(float64(n)/remoteAccessEff))
	}
}

// Pack performs a whole-message pack synchronously: count elements of
// dt laid out over data (device or host) into dst, which must hold the
// packed size.
func (e *Engine) Pack(p *sim.Proc, data mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer) {
	e.whole(p, data, dt, count, dst, dirPack, false)
}

// Unpack performs a whole-message unpack synchronously: src must hold
// the packed size.
func (e *Engine) Unpack(p *sim.Proc, data mem.Buffer, dt *datatype.Datatype, count int, src mem.Buffer) {
	e.whole(p, data, dt, count, src, dirUnpack, false)
}

// UnpackPrefix is Unpack of a message that may be shorter than the
// layout (a partial receive): it scatters the first min(len(src),
// Total()) packed bytes.
func (e *Engine) UnpackPrefix(p *sim.Proc, data mem.Buffer, dt *datatype.Datatype, count int, src mem.Buffer) {
	e.whole(p, data, dt, count, src, dirUnpack, true)
}

// whole moves a whole message between data and frag. Host data is moved
// by a converter on the stack, device data by a borrowed worker.
func (e *Engine) whole(p *sim.Proc, data mem.Buffer, dt *datatype.Datatype, count int, frag mem.Buffer, dir direction, prefix bool) {
	total := int64(count) * dt.Size()
	if frag.Len() < total && !prefix {
		panic("core: packed buffer smaller than packed size")
	}
	frag = frag.Slice(0, min(frag.Len(), total))
	if data.Kind() == mem.Host {
		var c datatype.Converter
		c.Init(dt, count)
		e.chargeCPU(p, frag.Len())
		cpuMove(&c, dir, data, frag)
		return
	}
	b := e.borrow()
	b.pk.init(e, data, dt, count, dir)
	_, fut := b.pk.process(p, frag, &b.k)
	fut.Await(p)
	e.giveBack(b)
}
