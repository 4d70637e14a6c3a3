package datatype

import (
	"fmt"
	"sort"
)

// Converter walks the memory layout of (datatype, count) in packed-byte
// order, resumably: each Advance call consumes up to a caller-chosen
// number of packed bytes, which is exactly what fragment-at-a-time
// pipelined protocols need (Open MPI's opal_convertor).
type Converter struct {
	dt     *Datatype
	count  int64
	extent int64
	total  int64

	rep    int64 // current repetition of the datatype
	bi     int   // current block within the element
	bo     int64 // bytes already consumed within the current block
	packed int64 // packed bytes consumed so far
}

// NewConverter returns a converter positioned at the beginning of a
// (datatype, count) layout. It panics if the datatype has data before its
// origin (negative true lower bound), which the engine does not support.
func NewConverter(dt *Datatype, count int) *Converter {
	c := new(Converter)
	c.Init(dt, count)
	return c
}

// Init is NewConverter for a converter embedded in a larger record.
func (c *Converter) Init(dt *Datatype, count int) {
	if dt == nil {
		panic("datatype: nil datatype")
	}
	if count < 0 {
		panic("datatype: negative count")
	}
	if dt.TrueLB() < 0 {
		panic(fmt.Sprintf("datatype: %s has negative true lower bound %d", dt.Name(), dt.TrueLB()))
	}
	*c = Converter{
		dt:     dt,
		count:  int64(count),
		extent: dt.Extent(),
		total:  int64(count) * dt.Size(),
	}
}

// Total returns the packed size of the full layout in bytes.
func (c *Converter) Total() int64 { return c.total }

// Packed returns the packed bytes consumed so far.
func (c *Converter) Packed() int64 { return c.packed }

// Remaining returns the packed bytes not yet consumed.
func (c *Converter) Remaining() int64 { return c.total - c.packed }

// Done reports whether the layout is fully consumed.
func (c *Converter) Done() bool { return c.packed >= c.total }

// Rewind repositions the converter at the beginning.
func (c *Converter) Rewind() {
	c.rep, c.bi, c.bo, c.packed = 0, 0, 0, 0
}

// SeekTo positions the converter at packed offset pos (MPI_Pack
// position): O(1) for canonically strided layouts, O(log B) prefix-sum
// search otherwise — it never replays the layout.
func (c *Converter) SeekTo(pos int64) {
	if pos < 0 || pos > c.total {
		panic(fmt.Sprintf("datatype: seek %d outside [0,%d]", pos, c.total))
	}
	if pos == 0 || c.total == 0 {
		c.Rewind()
		return
	}
	size := c.dt.size
	c.rep = pos / size
	c.bi, c.bo = c.dt.locate(pos - c.rep*size)
	c.packed = pos
}

// locate maps a packed offset within one element (0 <= off <= element
// size) to (block index, bytes into that block). An offset landing
// exactly on a block boundary reports the start of the next block,
// matching the converter's wrap-on-completion state.
func (d *Datatype) locate(off int64) (bi int, bo int64) {
	if off == 0 {
		return 0, 0
	}
	if cv := d.canon; cv != nil {
		return int(off / cv.BlockLen), off % cv.BlockLen
	}
	// First block whose cumulative end exceeds off, i.e. the block
	// containing byte off (boundary offsets select the next block).
	i := sort.Search(len(d.flat), func(i int) bool { return d.prefix[i+1] > off })
	if i == len(d.flat) { // off == element size: wrapped to next rep
		return 0, 0
	}
	return i, off - d.prefix[i]
}

// Advance consumes up to max packed bytes, invoking emit (if non-nil) for
// every contiguous piece with the absolute memory offset (from the data
// origin), the absolute packed offset, and the piece length. It returns
// the number of packed bytes consumed, which is min(max, Remaining()).
// A canonical layout's blocks come by arithmetic (Datatype.Block), so
// the walk never touches a list, which for shapes like a matrix
// transpose would hold one entry per scalar.
func (c *Converter) Advance(max int64, emit func(memOff, packOff, n int64)) int64 {
	if max < 0 {
		panic("datatype: negative advance")
	}
	// An element type with no blocks has nothing to walk, whatever the
	// count: without the clamp the loop below would ask for a block it
	// does not have.
	if r := c.Remaining(); max > r {
		max = r
	}
	nb := c.dt.NumBlocks()
	var done int64
	for done < max {
		b := c.dt.Block(c.bi)
		take := b.Len - c.bo
		if rem := max - done; take > rem {
			take = rem
		}
		if emit != nil {
			emit(c.rep*c.extent+b.Off+c.bo, c.packed, take)
		}
		c.bo += take
		c.packed += take
		done += take
		if c.bo == b.Len {
			c.bo = 0
			c.bi++
			if c.bi == nb {
				c.bi = 0
				c.rep++
			}
		}
	}
	return done
}

// Pack copies up to len(dst) packed bytes from the layout over src into
// dst, starting at the current position, and returns the bytes packed.
// src must cover the data region [0, count*extent) of the layout.
func (c *Converter) Pack(dst, src []byte) int64 { return c.move(src, dst, false) }

// PackImage packs the whole (dt, count) layout over src into a fresh
// slice: the layout-independent reference image that payload digests
// compare, blind to whatever the gaps between blocks hold.
func PackImage(dt *Datatype, count int, src []byte) []byte {
	c := NewConverter(dt, count)
	out := make([]byte, c.Total())
	c.Pack(out, src)
	return out
}

// Unpack copies up to len(src) packed bytes from src into the layout over
// dst, starting at the current position, and returns the bytes consumed.
func (c *Converter) Unpack(dst, src []byte) int64 { return c.move(dst, src, true) }

// move is Pack (unpack false: layout to packed) and Unpack (unpack
// true: packed to layout) over up to len(packed) bytes. It copies runs,
// not pieces: consecutive pieces that are also adjacent in memory go in
// one copy, and a dense pattern (Datatype.Dense) is a single copy with the
// position set by arithmetic. Either way the converter is left exactly
// where Advance over the same byte count leaves it.
func (c *Converter) move(layout, packed []byte, unpack bool) int64 {
	max := int64(len(packed))
	if r := c.total - c.packed; max > r {
		max = r
	}
	if max <= 0 {
		return 0
	}
	if off, _, ok := c.dt.Dense(int(c.count)); ok {
		transfer(layout[off+c.packed:off+c.packed+max], packed[:max], unpack)
		c.packed += max
		c.rep, c.bo = c.packed/c.dt.size, c.packed%c.dt.size
		return max
	}
	nb := c.dt.NumBlocks()
	// The run being gathered: run bytes at layout[at:], which are
	// packed[done-run:done].
	var done, at, run int64
	for done < max {
		b := c.dt.Block(c.bi)
		take := b.Len - c.bo
		if rem := max - done; take > rem {
			take = rem
		}
		if memOff := c.rep*c.extent + b.Off + c.bo; memOff != at+run {
			transfer(layout[at:at+run], packed[done-run:done], unpack)
			at, run = memOff, 0
		}
		run += take
		done += take
		c.bo += take
		if c.bo == b.Len {
			c.bo = 0
			c.bi++
			if c.bi == nb {
				c.bi = 0
				c.rep++
			}
		}
	}
	transfer(layout[at:at+run], packed[done-run:done], unpack)
	c.packed += done
	return done
}

// transfer copies between a run of the layout and its packed image, in
// the direction unpack names.
func transfer(layout, packed []byte, unpack bool) {
	if unpack {
		copy(layout, packed)
	} else {
		copy(packed, layout)
	}
}
