package mpi

import (
	"fmt"
	"slices"

	"gpuddt/internal/core"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// A block stays packed while a collective holds it. The engine exists
// to amortise one kernel launch over a whole message, and for an
// eager-sized block the launch is the whole cost; so where the
// per-message path would make a rank launch twice or more in a phase —
// it forwards a block it receives (ring step, tree interior), or packs
// or unpacks several blocks — the algorithm runs over a wire-format
// host stage instead (hold) and the rank launches one fused kernel for
// all of them. Each rank decides for itself, from the blocks it is
// given: the wire bytes are the same either way. Rendezvous-sized
// blocks, host memory, a tree leaf and a two-member ring keep the
// per-message path, whose fragment pipeline overlaps pack with wire.

// wholeBlock fails a collective whose peer sent fewer bytes than the
// block posted for them. The counts are part of a collective's
// signature, so this is the caller's error, like truncation; it has to
// be caught here because a held block is received as bytes, and a
// shorter run of bytes is a legal partial receive.
func (m *Rank) wholeBlock(what string, from int, got int64, dt *datatype.Datatype, count int) {
	if want := packedSize(dt, count); got != want {
		panic(fmt.Sprintf("mpi: %s: rank %d received %d bytes from rank %d for a block of %d",
			what, m.rank, got, from, want))
	}
}

// recvBlock is recvOn for one block of a collective.
func (m *Rank) recvBlock(p *sim.Proc, what string, buf mem.Buffer, dt *datatype.Datatype, count, from, tag int) {
	got := await(p, m.irecv(buf, dt, count, from, tag))
	m.wholeBlock(what, from, got, dt, count)
}

// stage holds blocks of a view packed, in wire format, in a host buffer.
type stage struct {
	buf    mem.Buffer
	blocks []core.Block // by block index; a nil Dt marks a block left in place
}

// takeStage hands out a stage of n bytes of host staging (take) with
// room for blocks blocks, all left in place, in a record the rank keeps
// — its blocks array too — from one stage to the next, and from one
// world to the next on the arena's shelf; release gives it back.
func (m *Rank) takeStage(n int64, blocks int) *stage {
	var s *stage
	if k := len(m.stages) - 1; k >= 0 {
		s = m.stages[k]
		m.stages = m.stages[:k]
	} else {
		s = new(stage)
	}
	s.buf = m.take(m.space, n)
	s.blocks = slices.Grow(s.blocks, blocks)[:blocks]
	return s
}

// hold decides which of v's n blocks the rank keeps packed for the
// phase. launches(i) is how many kernels the per-message path would
// cost the rank for block i (zero: not the phase's business). A block
// qualifies when it lies in device memory and is eager-sized — the
// threshold that already separates launch-bound from bandwidth-bound
// messages — and in the memory space of the first block that does: one
// fused kernel runs on one device, so a rank with blocks on two GPUs
// holds the first one's and leaves the other's to the per-message
// path. The qualifying blocks are held when that pays (holdPays). hold
// returns nil when nothing is held, and every method of a nil stage is
// the per-message path.
func (m *Rank) hold(n int, v view, launches func(i int) int) *stage {
	var saved int
	var total int64
	var first mem.Buffer
	for i := 0; i < n; i++ {
		if k := launches(i); k > 0 {
			buf, dt, count := v(i)
			if size := m.holdable(buf, dt, count); size > 0 {
				if !first.IsValid() {
					first = buf
				}
				if buf.Space() == first.Space() {
					saved += k
					total += size
				}
			}
		}
	}
	if saved < 2 || !m.holdPays(saved, total, first) {
		return nil
	}
	s := m.takeStage(total, n)
	var pos int64
	for i := 0; i < n; i++ {
		if launches(i) > 0 {
			buf, dt, count := v(i)
			if size := m.holdable(buf, dt, count); size > 0 && buf.Space() == first.Space() {
				s.blocks[i] = core.Block{Data: buf, Dt: dt, Count: count, Pos: pos}
				pos += size
			}
		}
	}
	return s
}

// holdPays weighs what a hold saves against what it adds. It saves all
// but one of the launches. It adds, per held byte, one more copy on the
// host on each side of the wire (stage to bounce buffer and back: four
// bus crossings) and one crossing of the device's PCIe slot that the
// per-message path would have overlapped with the wire — the bulk pack
// ends before the first send starts, the bulk unpack starts after the
// last receive. The terms are the device's and the node's own; the slot
// is priced by its transmit link on the unpack side too (hold is not
// told the direction, and a slot's two links are built alike).
func (m *Rank) holdPays(launches int, bytes int64, data mem.Buffer) bool {
	node := m.ctx.Node()
	dev := node.DeviceOf(data.Space())
	saves := sim.Time(launches-1) * node.GPU(dev).Params().KernelLaunch
	return saves > node.HostBus().OccupancyFor(4*bytes)+node.SlotTx(dev).OccupancyFor(bytes)
}

// holdBlock is hold for the one block of a broadcast. It returns the
// stage (nil: not held) and the block as the tree is to see it.
func (m *Rank) holdBlock(launches int, buf mem.Buffer, dt *datatype.Datatype, count int) (*stage, mem.Buffer, *datatype.Datatype, int) {
	size := m.holdable(buf, dt, count)
	if size == 0 || launches < 2 {
		return nil, buf, dt, count
	}
	st := m.takeStage(size, 1)
	st.blocks[0] = core.Block{Data: buf, Dt: dt, Count: count}
	return st, st.buf.Slice(0, size), datatype.Byte, int(size)
}

// holdable returns the packed size of a block worth holding, zero for
// any other.
func (m *Rank) holdable(buf mem.Buffer, dt *datatype.Datatype, count int) int64 {
	size := packedSize(dt, count)
	if size == 0 || size > m.w.tun.eager || buf.Kind() != mem.Device {
		return 0
	}
	return size
}

// over is the view the algorithm runs on: a held block is its window of
// the stage, as bytes; any other is v's.
func (s *stage) over(v view) view {
	if s == nil {
		return v
	}
	return func(i int) (mem.Buffer, *datatype.Datatype, int) {
		if b := &s.blocks[i]; b.Dt != nil {
			return s.buf.Slice(b.Pos, b.Size()), datatype.Byte, int(b.Size())
		}
		return v(i)
	}
}

// packHeld fills the stage from the held blocks' memory, before a phase
// that sends them.
func (m *Rank) packHeld(p *sim.Proc, s *stage) {
	if s != nil {
		m.packBlocks(p, s.blocks, s.buf)
	}
}

// unpackHeld scatters the stage into the held blocks' memory, after a
// phase that received them.
func (m *Rank) unpackHeld(p *sim.Proc, s *stage) {
	if s != nil {
		m.unpackBlocks(p, s.blocks, s.buf)
	}
}

// release ends the hold: the stage's buffer goes back (give) and its
// record to the rank's, naming nothing — no block of a closed world
// stays reachable from a shelved arena.
func (m *Rank) release(s *stage) {
	if s != nil {
		m.give(s.buf)
		s.buf = mem.Buffer{}
		clear(s.blocks)
		s.blocks = s.blocks[:0]
		m.stages = append(m.stages, s)
	}
}

// packBlocks packs every block into the host window stage at its Pos,
// in one call of the engine that moves their memory: one fused zero-copy
// kernel for device blocks, one pass of the CPU for host blocks.
func (m *Rank) packBlocks(p *sim.Proc, blocks []core.Block, stage mem.Buffer) {
	m.moveBlocks(p, true, blocks, stage)
}

// unpackBlocks is the inverse of packBlocks.
func (m *Rank) unpackBlocks(p *sim.Proc, blocks []core.Block, stage mem.Buffer) {
	m.moveBlocks(p, false, blocks, stage)
}

func (m *Rank) moveBlocks(p *sim.Proc, pack bool, blocks []core.Block, stage mem.Buffer) {
	var total int64
	var data mem.Buffer
	for i := range blocks {
		if n := blocks[i].Size(); n > 0 {
			total += n
			data = blocks[i].Data
		}
	}
	if total == 0 {
		return
	}
	name := "unpack"
	if pack {
		name = "pack"
	}
	h := p.BeginBytes(name, total)
	h.SetDetail("fused")
	defer h.End()
	if eng := m.EngineFor(data); pack {
		eng.PackBlocks(p, blocks, stage)
	} else {
		eng.UnpackBlocks(p, blocks, stage)
	}
}

// scratch is the index arrays and the block list of one collective
// call, in a record the rank keeps, with their capacity, from call to
// call and, on the arena's shelf, from world to world. Each call takes
// its own (takeScratch) and gives it back when it returns, since an
// Iallgatherv's progress process runs beside the rank's blocking calls.
type scratch struct {
	arrays [4][]int
	blocks []core.Block
}

// takeScratch hands out one of the rank's scratch records, or a new one.
func (m *Rank) takeScratch() *scratch {
	if k := len(m.scratches) - 1; k >= 0 {
		s := m.scratches[k]
		m.scratches[k], m.scratches = nil, m.scratches[:k]
		return s
	}
	return new(scratch)
}

// giveScratch takes back a record takeScratch handed out, its block list
// cleared: no block of a closed world stays reachable from a shelved
// arena.
func (m *Rank) giveScratch(s *scratch) {
	clear(s.blocks)
	s.blocks = s.blocks[:0]
	m.scratches = append(m.scratches, s)
}

// ints returns array i of the record with length n. Its entries are
// stale: the caller assigns every one.
func (s *scratch) ints(i, n int) []int {
	s.arrays[i] = slices.Grow(s.arrays[i][:0], n)[:n]
	return s.arrays[i]
}

// blocksOf lists blocks 0..n-1 of v for packBlocks or unpackBlocks, the
// packed bytes of block i at pos[i] of the stage, leaving out block
// skip, in the record's block list.
func (s *scratch) blocksOf(v view, n int, pos []int, skip int) []core.Block {
	blocks := slices.Grow(s.blocks[:0], n)
	for i := 0; i < n; i++ {
		if i == skip {
			continue
		}
		if buf, dt, count := v(i); packedSize(dt, count) > 0 {
			blocks = append(blocks, core.Block{Data: buf, Dt: dt, Count: count, Pos: int64(pos[i])})
		}
	}
	s.blocks = blocks
	return blocks
}
