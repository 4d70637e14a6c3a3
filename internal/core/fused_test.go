package core

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// TestFusedBlocksMatchSeparate packs and unpacks a list of blocks of
// mixed layouts — vector, converted (a cache miss, then hits), a run of
// equal ones, empty ones, out of memory order and with gaps in the
// packed window — as one kernel each way, and requires the bytes of one
// Pack / Unpack per block, the same entries in the DEV cache, and a
// single launch.
func TestFusedBlocksMatchSeparate(t *testing.T) {
	vec := shapes.SubMatrix(16, 8, 12)
	tri := shapes.LowerTriangular(24)
	layouts := []struct {
		dt    *datatype.Datatype
		count int
	}{{vec, 1}, {vec, 1}, {tri, 2}, {nil, 0}, {vec, 3}, {tri, 2}, {vec, 0}, {tri, 1}, {vec, 1}}
	for _, host := range []bool{true, false} { // the contiguous side: zero-copy host, or device
		r := newRig(t, Options{})
		var blocks []Block
		var pos int64
		for i, l := range layouts {
			b := Block{Dt: l.dt, Count: l.count}
			if n := b.Size(); n > 0 {
				b.Data, b.Pos = r.ctx.Malloc(0, l.dt.Span(l.count)), pos+8*int64(i%3)
				mem.FillPattern(b.Data, uint64(100+i))
				pos = b.Pos + n
			}
			blocks = append(blocks, b)
		}
		blocks[0], blocks[7] = blocks[7], blocks[0] // memory order is not index order
		alloc := func(n int64) mem.Buffer {
			if host {
				return r.ctx.MallocHost(n)
			}
			return r.ctx.Malloc(0, n)
		}
		fused, separate := alloc(pos), alloc(pos)
		back := make([]mem.Buffer, len(blocks))
		var launches [2]int64
		r.eng.Spawn("fused", func(p *sim.Proc) {
			dev := r.e.Device()
			n0 := dev.KernelsRun()
			r.e.PackBlocks(p, blocks, fused)
			launches[0] = dev.KernelsRun() - n0
			for _, b := range blocks {
				if b.Size() > 0 {
					r.e.Pack(p, b.Data, b.Dt, b.Count, separate.Slice(b.Pos, b.Size()))
				}
			}
			// Scatter the window into fresh memory and compare layouts.
			into := make([]Block, len(blocks))
			for i, b := range blocks {
				into[i] = b
				if b.Size() > 0 {
					back[i] = r.ctx.Malloc(0, b.Data.Len())
					into[i].Data = back[i]
				}
			}
			n0 = dev.KernelsRun()
			r.e.UnpackBlocks(p, into, fused)
			launches[1] = dev.KernelsRun() - n0
		})
		r.eng.Run()
		if launches != [2]int64{1, 1} {
			t.Fatalf("host=%v: %d pack and %d unpack launches, want one each", host, launches[0], launches[1])
		}
		for i, b := range blocks {
			if b.Size() == 0 {
				continue
			}
			w := fused.Slice(b.Pos, b.Size()).Bytes()
			if !bytes.Equal(w, separate.Slice(b.Pos, b.Size()).Bytes()) || !bytes.Equal(w, cpuPack(b.Dt, b.Count, b.Data.Bytes())) {
				t.Fatalf("host=%v: block %d packed differently from a pack of its own", host, i)
			}
			if !bytes.Equal(cpuPack(b.Dt, b.Count, back[i].Bytes()), w) {
				t.Fatalf("host=%v: block %d unpacked differently from what was packed", host, i)
			}
		}
		// Each converted layout was converted once, by the fused pack.
		if n := len(r.e.cache); n != 3 {
			t.Fatalf("host=%v: %d lists cached, want (tri, 2), (vec, 3) and (tri, 1)", host, n)
		}
	}
}

// TestFusedUnpackLastWriterWins: blocks are scattered in index order,
// so receive blocks that overlap in memory (erroneous, but legal to
// post) end with the bytes of the later one, as separate unpacks would.
func TestFusedUnpackLastWriterWins(t *testing.T) {
	r := newRig(t, Options{})
	dt := datatype.Contiguous(64, datatype.Byte)
	data := r.ctx.Malloc(0, 96)
	src := r.ctx.MallocHost(128)
	mem.FillPattern(src, 7)
	blocks := []Block{
		{Data: data.Slice(32, 64), Dt: dt, Count: 1, Pos: 0},
		{Data: data.Slice(0, 64), Dt: dt, Count: 1, Pos: 64}, // overlaps the first by 32 bytes
	}
	r.eng.Spawn("unpack", func(p *sim.Proc) { r.e.UnpackBlocks(p, blocks, src) })
	r.eng.Run()
	want := append(append([]byte(nil), src.Bytes()[64:128]...), src.Bytes()[32:64]...)
	if !bytes.Equal(data.Bytes(), want) {
		t.Fatal("overlapping blocks: the later block's bytes did not win")
	}
}
