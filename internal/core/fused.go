package core

import (
	"slices"

	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Block is one piece of a fused transfer: Count elements of Dt laid out
// over Data (byte 0 is the datatype origin), whose packed bytes sit at
// Pos of the transfer's contiguous window. A nil Dt or a zero Count is
// an empty block; its Data is never looked at.
type Block struct {
	Data  mem.Buffer
	Dt    *datatype.Datatype
	Count int
	Pos   int64
}

// Size is the block's packed size.
func (b *Block) Size() int64 {
	if b.Dt == nil {
		return 0
	}
	return int64(b.Count) * b.Dt.Size()
}

// blockDevBytes is what a block adds to a fused kernel's argument table:
// its memory offset, packed offset and length.
const blockDevBytes = entryDevBytes

// PackBlocks packs every block into dst with one kernel launch — what a
// collective pays instead of one launch per peer when its blocks are
// small enough for the launch to be their whole cost. All blocks must
// lie in one memory space of the engine's node (they are windows of one
// user buffer); dst may be device or host (zero-copy) memory. Blocks in
// host memory are packed by the CPU, one host-bus charge for them all.
func (e *Engine) PackBlocks(p *sim.Proc, blocks []Block, dst mem.Buffer) {
	e.fused(p, blocks, dst, dirPack)
}

// UnpackBlocks is the inverse of PackBlocks: one kernel scatters every
// block out of src. Blocks are written in index order, so overlapping
// (erroneous) layouts keep the bytes of the last block, as a sequence
// of separate unpacks would.
func (e *Engine) UnpackBlocks(p *sim.Proc, blocks []Block, src mem.Buffer) {
	e.fused(p, blocks, src, dirUnpack)
}

// fused builds one unit list over all blocks and launches it. Each
// block's units come from where a message of its (datatype, count)
// takes them — the vector's run, the DEV cache, or conversion at the
// usual charge, which also fills the cache — shifted by the block's
// place in memory and in the packed window. A run of blocks of one
// (datatype, count), the uniform collectives' case, derives them once.
// The kernel is the vector kernel when every block is a vector, the
// generic DEV kernel otherwise; the per-block table is uploaded like
// any descriptor array.
func (e *Engine) fused(p *sim.Proc, blocks []Block, frag mem.Buffer, dir direction) {
	// The window of memory the kernel addresses: the blocks' hull.
	var space *mem.Space
	var lo, hi, total int64
	nblocks := 0
	for i := range blocks {
		b := &blocks[i]
		n := b.Size()
		if n == 0 {
			continue
		}
		a, z := b.Data.Addr(), b.Data.Addr()+b.Data.Len()
		switch {
		case space == nil:
			space, lo, hi = b.Data.Space(), a, z
		case b.Data.Space() != space:
			panic("core: fused blocks lie in different memory spaces")
		}
		lo, hi = min(lo, a), max(hi, z)
		total += n
		nblocks++
	}
	if nblocks == 0 {
		return
	}
	data := space.BufferAt(lo, hi-lo)
	if data.Kind() == mem.Host {
		e.chargeCPU(p, total)
		for i := range blocks {
			if b := &blocks[i]; b.Size() > 0 {
				var c datatype.Converter
				c.Init(b.Dt, b.Count)
				cpuMove(&c, dir, b.Data, frag.Slice(b.Pos, b.Size()))
			}
		}
		return
	}

	// One borrowed worker serves every run in turn — a run's units are
	// copied out before the next run re-inits it — and its kernel record
	// carries the launch, the units growing in the record's own array.
	w := e.borrow()
	kind := gpu.VectorKernel
	units := w.k.Rearm(0)
	var pk *Packer        // the worker of the current run of equal layouts
	var first, last int   // its first block's units are units[first:last],
	var memOff, pos int64 // shifted to this place in memory and in frag
	for i := range blocks {
		b := &blocks[i]
		if b.Size() == 0 {
			continue
		}
		bMem := b.Data.Addr() - lo
		if pk == nil || pk.dt != b.Dt || pk.cnt != b.Count {
			pk = &w.pk
			pk.init(e, b.Data, b.Dt, b.Count, dir)
			first = len(units)
			units = pk.appendMessage(p, units)
			last = len(units)
			shiftUnits(units[first:last], bMem, b.Pos, dir)
			memOff, pos = bMem, b.Pos
			if pk.kind != gpu.VectorKernel {
				kind = gpu.DEVKernel
			}
			continue
		}
		next := len(units)
		units = append(units, units[first:last]...)
		shiftUnits(units[next:], bMem-memOff, b.Pos-pos, dir)
	}
	if nblocks > 1 {
		e.ctx.Node().H2D(e.dev.ID()).Transfer(p, int64(nblocks)*blockDevBytes)
	}
	e.launch(&w.k, kind, dir, data, frag, units, total).Await(p)
	e.giveBack(w)
}

// appendMessage appends the units of the packer's whole message, as one
// window starting at packed offset zero: its list, or the list a
// conversion builds.
func (pk *Packer) appendMessage(p *sim.Proc, units []gpu.Unit) []gpu.Unit {
	entries := pk.list
	if entries == nil {
		entries = pk.convert(p, pk.Total())
	}
	at := len(units)
	units = slices.Grow(units, len(entries))[:at+len(entries)]
	pk.bind(units[at:], entries, 0)
	if pk.list == nil {
		pk.converted()
	}
	return units
}

// shiftUnits moves units by mem bytes on the layout side and pack bytes
// on the contiguous side.
func shiftUnits(units []gpu.Unit, mem, pack int64, dir direction) {
	if dir == dirUnpack {
		mem, pack = pack, mem
	}
	for i := range units {
		units[i].SrcOff += mem
		units[i].DstOff += pack
	}
}
