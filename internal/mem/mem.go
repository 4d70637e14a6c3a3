// Package mem provides simulated address spaces backed by real bytes.
//
// Host memory and each GPU's device memory are separate Spaces. A Buffer
// is a bounds-checked window into a Space; packing kernels, DMA copies and
// network transfers all read and write real bytes through Buffers, so
// end-to-end data correctness is verifiable while the simulation charges
// virtual time for the movement.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Kind distinguishes where a Space physically lives.
type Kind int

const (
	// Host is CPU-attached DRAM.
	Host Kind = iota
	// Device is GPU-attached DRAM.
	Device
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Space is a flat simulated address space with a bump allocator. The
// backing storage grows on demand so that a large simulated memory (a
// 12 GB GPU) costs real memory only for the bytes actually allocated.
type Space struct {
	name string
	kind Kind
	size int64 // capacity cap
	data []byte
	brk  int64

	// retired holds outgrown backing arrays until Release. They cannot
	// go back to the slab pool mid-lifetime: a caller may still hold a
	// (stale, already-copied) Bytes() slice into one, and recycling it
	// into another Space would alias live traffic over that view. The
	// list is capped at spaceMaxRetired entries: beyond that the oldest
	// (smallest — growth doubles) arrays are dropped to the garbage
	// collector instead of being kept for pool recycling, so a Space
	// never pins more than ~2x its largest backing in dead arrays.
	retired [][]byte
}

// spaceMaxRetired caps Space.retired. Power-of-two growth means the
// newest retained arrays hold nearly all the retired bytes; anything
// older is worthless to the slab pool but would pin real memory for the
// Space's whole lifetime — at 16k-rank sweeps that defeats the
// flyweight memory win.
const spaceMaxRetired = 4

// NewSpace creates a space of the given size in bytes.
func NewSpace(name string, kind Kind, size int64) *Space {
	return &Space{name: name, kind: kind, size: size}
}

// ensure grows the backing array to cover [0, n). Backing arrays come
// from the slab pool when possible (see pool.go); recycled and
// in-place-extended memory is NOT zeroed, which the simulation never
// relies on.
func (s *Space) ensure(n int64) {
	if int64(len(s.data)) >= n {
		return
	}
	if int64(cap(s.data)) >= n {
		s.data = s.data[:n]
		return
	}
	grow := s.backingFor(n)
	nd := getSlab(grow)
	if nd == nil {
		nd = make([]byte, grow)
	}
	copy(nd, s.data)
	if len(s.data) > 0 {
		if len(s.retired) >= spaceMaxRetired {
			n := copy(s.retired, s.retired[1:])
			s.retired[n] = nil
			s.retired = s.retired[:n]
		}
		s.retired = append(s.retired, s.data)
	}
	s.data = nd
}

// backingFor returns the size of the backing array that covers [0, n):
// n rounded up to a power of two, at least 4 KiB, at most the space's
// size. Requested sizes vary slightly from world to world (they track
// the bump-allocator break), and pooled slabs are only reusable when
// sizes recur. Power-of-two classes make every similar-scale world land
// on the same slab.
func (s *Space) backingFor(n int64) int64 {
	grow := int64(1) << 12
	for grow < n {
		grow <<= 1
	}
	return min(grow, s.size)
}

// UsedBacking returns the backing array the space needs for what it has
// handed out since it was made or last Reset: its bump-allocator break
// rounded up as the space grows (0 if nothing was handed out). A space
// that is Reset and reused reports what its current allocations need,
// not what earlier ones grew it to.
func (s *Space) UsedBacking() int64 {
	if s.brk == 0 {
		return 0
	}
	return s.backingFor(s.brk)
}

// RetiredSlabs returns how many outgrown backing arrays the space still
// holds (bounded by spaceMaxRetired).
func (s *Space) RetiredSlabs() int { return len(s.retired) }

// RetiredBytes returns the bytes pinned by retired backing arrays.
func (s *Space) RetiredBytes() int64 {
	var n int64
	for _, r := range s.retired {
		n += int64(cap(r))
	}
	return n
}

// FootprintBytes returns the real memory backing the space: the live
// array plus everything retired. This is the deterministic measure the
// scale sweep reports as per-rank memory.
func (s *Space) FootprintBytes() int64 { return int64(cap(s.data)) + s.RetiredBytes() }

// Release returns the backing storage to the slab pool so a future
// Space can reuse it without re-zeroing. The Space and every Buffer
// into it must not be used afterwards; Release is the end of a
// simulation world's lifetime (see mpi.World.Close). Safe to call more
// than once.
func (s *Space) Release() {
	if s.data != nil {
		putSlab(s.data)
		s.data = nil
	}
	s.releaseRetired()
}

// releaseRetired returns the outgrown arrays to the slab pool.
func (s *Space) releaseRetired() {
	for _, r := range s.retired {
		putSlab(r)
	}
	clear(s.retired)
	s.retired = s.retired[:0]
}

// Reset empties the space for reuse: the bump allocator starts again at
// address 0, so a space that is reset and then asked for the same
// allocations hands out the same addresses, and the live backing array
// stays, so they cost no growth. Outgrown arrays go to the slab pool.
// Every Buffer into the space must be dropped first.
func (s *Space) Reset() {
	s.brk = 0
	s.releaseRetired()
}

// Shrink trades a live backing array larger than n bytes for one of n
// bytes (none for 0), and returns the larger one to the slab pool. Call
// it on a space just Reset, with n at least what its next user needs
// to keep for free (UsedBacking before the Reset).
func (s *Space) Shrink(n int64) {
	if int64(cap(s.data)) <= n {
		return
	}
	old := s.data
	s.data = nil
	if n > 0 {
		if s.data = getSlabUpTo(n, n); s.data == nil {
			s.data = make([]byte, n)
		}
	}
	putSlab(old)
}

// Size returns the total capacity in bytes.
func (s *Space) Size() int64 { return s.size }

// Kind returns where the space lives.
func (s *Space) Kind() Kind { return s.kind }

// Alloc reserves n bytes aligned to align (a power of two; 0 means 256)
// and returns a Buffer covering them. It panics on exhaustion, which in a
// simulation indicates a sizing bug rather than a runtime condition.
func (s *Space) Alloc(n int64, align int64) Buffer {
	if n < 0 {
		panic(fmt.Sprintf("mem: negative alloc %d on %s", n, s.name))
	}
	if align == 0 {
		align = 256
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	off := (s.brk + align - 1) &^ (align - 1)
	if off+n > s.Size() {
		panic(fmt.Sprintf("mem: %s out of memory: want %d at %d, size %d", s.name, n, off, s.Size()))
	}
	s.brk = off + n
	s.ensure(s.brk)
	return Buffer{space: s, off: off, n: n}
}

// Buffer is a bounds-checked window into a Space. The zero Buffer is
// invalid; IsValid reports usability.
type Buffer struct {
	space *Space
	off   int64
	n     int64
}

// IsValid reports whether the buffer references a space.
func (b Buffer) IsValid() bool { return b.space != nil }

// Space returns the owning space.
func (b Buffer) Space() *Space { return b.space }

// Kind returns the owning space's kind.
func (b Buffer) Kind() Kind { return b.space.kind }

// Addr returns the offset of the buffer within its space. Together with
// the space name it forms a simulated "device pointer" (used for IPC
// handles and RDMA descriptors).
func (b Buffer) Addr() int64 { return b.off }

// Len returns the buffer length in bytes.
func (b Buffer) Len() int64 { return b.n }

// Slice returns the sub-buffer [off, off+n).
func (b Buffer) Slice(off, n int64) Buffer {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mem: slice [%d:%d) out of buffer of %d bytes", off, off+n, b.n))
	}
	return Buffer{space: b.space, off: b.off + off, n: n}
}

// Bytes exposes the underlying storage. Mutations are real: this is how
// kernels and DMA engines move data.
func (b Buffer) Bytes() []byte {
	return b.space.data[b.off : b.off+b.n : b.off+b.n]
}

// String describes the buffer for diagnostics.
func (b Buffer) String() string {
	if !b.IsValid() {
		return "mem.Buffer(nil)"
	}
	return fmt.Sprintf("%s[%d:+%d]", b.space.name, b.off, b.n)
}

// BufferAt reconstructs a buffer from a raw (addr, len) pair, as carried
// in IPC handles or RDMA descriptors. It panics if out of range.
func (s *Space) BufferAt(addr, n int64) Buffer {
	if addr < 0 || n < 0 || addr+n > s.Size() {
		panic(fmt.Sprintf("mem: BufferAt(%d, %d) out of %s (size %d)", addr, n, s.name, s.Size()))
	}
	return Buffer{space: s, off: addr, n: n}
}

// Copy moves min(len(dst), len(src)) bytes between buffers (the functional
// half of a DMA; the caller charges virtual time separately). It returns
// the byte count moved. Overlapping copies within one space follow Go copy
// semantics.
func Copy(dst, src Buffer) int64 {
	return int64(copy(dst.Bytes(), src.Bytes()))
}

// Fill sets every byte of b to v.
func Fill(b Buffer, v byte) {
	bs := b.Bytes()
	for i := range bs {
		bs[i] = v
	}
}

// FillPattern writes a deterministic position-dependent pattern, seeded so
// that distinct buffers get distinct contents. Used by tests and examples
// to verify end-to-end transfers byte-exactly.
func FillPattern(b Buffer, seed uint64) {
	bs := b.Bytes()
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range bs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		bs[i] = byte(x>>32) ^ byte(i)
	}
}

// Mix64 is the splitmix64 mixer: fast, full-period and seed-friendly.
// It is the one hash the simulator derives payloads and fault decisions
// from.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// patternWord returns 64-bit word w of seed's synthetic stream: Mix64
// of the w-th step of seed's Weyl sequence. Unlike FillPattern's serial xorshift, any
// word is computable in O(1), which is what lets modelled-payload
// worlds generate the bytes of an arbitrary message window without
// materializing the buffer around it.
func patternWord(seed, w uint64) uint64 { return Mix64(seed + w*0x9e3779b97f4a7c15) }

// SyntheticWord returns the eight stream bytes at offset off, which must
// be a multiple of 8, as one little-endian word: what SyntheticAt stores
// there. A consumer that folds or compares whole words reads the stream
// through this and never materializes it.
func SyntheticWord(seed, off uint64) uint64 {
	// off is a multiple of 8, so byte(off)+j cannot carry out of its
	// lane for j < 8: the eight offset bytes are one multiply-add.
	return patternWord(seed, off>>3) ^ (0x0706050403020100 + (off&0xff)*0x0101010101010101)
}

// SyntheticAt writes len(dst) bytes of the random-access synthetic
// pattern for seed, starting at stream offset off. SyntheticAt(s, 0, b)
// followed by reads anywhere is byte-identical to generating windows
// directly: SyntheticAt(s, off, w) equals the slice [off, off+len(w))
// of the full stream.
//
// Byte o of the stream is byte o&7 of patternWord(seed, o>>3) XOR
// byte(o). Only the unaligned head and tail are produced that way; an
// aligned word is one SyntheticWord and one 8-byte store.
func SyntheticAt(seed uint64, off int64, dst []byte) {
	if off < 0 {
		panic("mem: negative synthetic pattern offset")
	}
	o := uint64(off)
	if o&7 != 0 {
		n := syntheticBytes(seed, o, dst)
		o += uint64(n)
		dst = dst[n:]
	}
	for ; len(dst) >= 8; dst = dst[8:] {
		binary.LittleEndian.PutUint64(dst, SyntheticWord(seed, o))
		o += 8
	}
	if len(dst) > 0 {
		syntheticBytes(seed, o, dst)
	}
}

// syntheticBytes writes stream bytes from offset o up to the next word
// boundary or the end of dst, whichever comes first, and returns how
// many it wrote.
func syntheticBytes(seed, o uint64, dst []byte) int {
	w := patternWord(seed, o>>3) >> (8 * (o & 7))
	n := 0
	for ; n < len(dst) && (o+uint64(n))>>3 == o>>3; n++ {
		dst[n] = byte(w) ^ byte(o+uint64(n))
		w >>= 8
	}
	return n
}

// FillSynthetic fills b with the synthetic pattern for seed (the
// random-access counterpart of FillPattern, used wherever a generator
// must later reproduce arbitrary windows of the contents).
func FillSynthetic(b Buffer, seed uint64) { SyntheticAt(seed, 0, b.Bytes()) }

// Equal reports whether two buffers have identical length and contents.
func Equal(a, b Buffer) bool {
	if a.n != b.n {
		return false
	}
	ab, bb := a.Bytes(), b.Bytes()
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}
