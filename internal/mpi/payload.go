package mpi

import (
	"encoding/binary"
	"io"
	"math/bits"
	"slices"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
)

// Payload digest verification path.
//
// A SyntheticPayload names the contents of a (dt, count) buffer without
// materializing it: a seed plus the compiled datatype layout determine
// every byte, and any packed window of the elements can be regenerated
// in O(window) by walking the layout's flattened blocks over the
// random-access pattern (mem.SyntheticAt). Both operating modes of the
// scale sweep hang off this one definition:
//
//   - real-payload worlds Fill() device buffers with the pattern, run
//     the full protocol stack, and digest the packed results;
//   - modelled-payload worlds (internal/model) never allocate the
//     buffers at all — they regenerate the same packed windows on
//     demand to sign messages and to compute the same digest.
//
// A modelled run is accepted only if its digest equals the real run's,
// which is what keeps flyweight worlds honest about data movement.
//
// Two values are computed over packed windows and they are different
// kinds of thing. The world digest is sha256 and is compared across
// modes and runs. The per-message signature (Sig64) is a word-wise,
// stream-invariant 64-bit fold that sender and receiver of one modelled
// message compute in the same process and compare once; it is not
// FNV-1a, not a stable format, and nothing may store or pin it.
//
// The pack engine's rule applies here too: non-contiguous data is never
// touched a byte at a time. The generator emits, and the signature
// folds, aligned 8-byte words; the walk over the datatype's blocks
// takes them from the type itself (datatype.Datatype.Block), by
// arithmetic for a canonical layout, and allocates nothing.

// SyntheticPayload describes deterministic synthetic contents for
// count elements of Dt, seeded so distinct buffers differ.
type SyntheticPayload struct {
	Seed  uint64
	Dt    *datatype.Datatype
	Count int
}

// Span returns the memory footprint of the layout from its origin.
func (sp SyntheticPayload) Span() int64 { return sp.Dt.Span(sp.Count) }

// PackedBytes returns the packed size of the full payload.
func (sp SyntheticPayload) PackedBytes() int64 { return int64(sp.Count) * sp.Dt.Size() }

// Fill materializes the payload into a real buffer: every byte of the
// buffer's span gets the pattern (gaps included), exactly like
// mem.FillSynthetic of the whole region. Packed windows later read
// from the buffer therefore match WritePacked byte-for-byte.
func (sp SyntheticPayload) Fill(b mem.Buffer) { mem.FillSynthetic(b, sp.Seed) }

// packedWalk generates the packed bytes of elements [e, end) in order:
// the blocks of each element in turn, read off the random-access
// pattern at their memory offsets. It is a value on the caller's stack;
// nothing here allocates.
type packedWalk struct {
	seed    uint64
	dt      *datatype.Datatype
	nb      int // blocks per element
	ext     int64
	e, end  int
	bi      int   // next block of element e
	off, ln int64 // rest of the block being generated
}

func (sp SyntheticPayload) walk(elem0, n int) packedWalk {
	k := packedWalk{seed: sp.Seed, dt: sp.Dt, nb: sp.Dt.NumBlocks(), ext: sp.Dt.Extent(), e: elem0, end: elem0 + n}
	if k.nb == 0 {
		k.end = k.e // an empty datatype has no stream
	}
	return k
}

// fill writes the next bytes of the stream into p and returns how many;
// fewer than len(p) only where the stream ends.
func (k *packedWalk) fill(p []byte) int {
	n := 0
	for n < len(p) {
		if k.ln == 0 {
			if k.bi == k.nb {
				k.bi = 0
				k.e++
			}
			if k.e >= k.end {
				break
			}
			b := k.dt.Block(k.bi)
			k.bi++
			k.off, k.ln = int64(k.e)*k.ext+b.Off, b.Len
		}
		c := int64(len(p) - n)
		if c > k.ln {
			c = k.ln
		}
		mem.SyntheticAt(k.seed, k.off, p[n:n+int(c)])
		n += int(c)
		k.off += c
		k.ln -= c
	}
	return n
}

// AppendPacked appends the packed bytes of elements [elem0, elem0+n) to
// dst — the generator-side equivalent of packing those elements out of
// a Fill()ed buffer. A caller that digests many windows passes the
// same dst[:0] again and allocates nothing.
func (sp SyntheticPayload) AppendPacked(dst []byte, elem0, n int) []byte {
	at, size := len(dst), n*int(sp.Dt.Size())
	dst = slices.Grow(dst, size)[:at+size]
	k := sp.walk(elem0, n)
	k.fill(dst[at:])
	return dst
}

// FoldPacked folds the packed bytes of elements [elem0, elem0+n) into
// s. Folding several windows into one Sig64 signs their concatenation.
//
// Sig64 folds words and the generator makes words, so when every block
// of every element starts and ends on a word boundary of the stream —
// any layout of doubles — and s stands on one too, each word goes from
// the generator straight into the fold (foldWords) and the packed bytes
// are never written anywhere. Sig64 does not depend on how its input
// was split, so this is the value Write(AppendPacked(nil, elem0, n))
// gives. Any other layout, or an s holding part of a word, generates
// through a scratch on the stack.
func (sp SyntheticPayload) FoldPacked(s *Sig64, elem0, n int) {
	ext := sp.Dt.Extent()
	nb, cv := sp.Dt.NumBlocks(), sp.Dt.Canonical()
	// One OR finds a misaligned or negative offset, length or extent;
	// negative offsets are left to SyntheticAt, which rejects them. A
	// canonical layout's blocks are aligned when its first block, its
	// length and its strides are.
	m := ext | int64(s.n&7) | sp.Dt.TrueLB()
	if cv != nil {
		m |= cv.Off | cv.BlockLen | cv.InnerStride&7 | cv.OuterStride&7
	} else {
		for i := range nb {
			b := sp.Dt.Block(i)
			m |= b.Off | b.Len
		}
	}
	if m >= 0 && m&7 == 0 && elem0 >= 0 {
		h := s.h ^ sigInit
		for e := elem0; e < elem0+n; e++ {
			base := uint64(e) * uint64(ext)
			if cv != nil {
				for j := range cv.Outer {
					run := base + uint64(cv.Off+j*cv.OuterStride)
					for i := range cv.Inner {
						o := run + uint64(i*cv.InnerStride)
						h = foldWords(h, sp.Seed, o, o+uint64(cv.BlockLen))
					}
				}
				continue
			}
			for i := range nb {
				b := sp.Dt.Block(i)
				o := base + uint64(b.Off)
				h = foldWords(h, sp.Seed, o, o+uint64(b.Len))
			}
		}
		s.h = h ^ sigInit
		s.n += uint64(n) * uint64(sp.Dt.Size())
		return
	}
	var scratch [512]byte
	k := sp.walk(elem0, n)
	for {
		c := k.fill(scratch[:])
		s.Write(scratch[:c])
		if c < len(scratch) {
			return
		}
	}
}

// foldWords folds the words of seed's stream at offsets [o, stop) into
// h. Called once per block and kept out of line: inlined into the walk
// over elements and blocks, the generator's temporaries no longer fit
// in registers and every word goes through the stack (2.3 GB/s against
// 3.2 on BenchmarkFoldPacked/words).
//
//go:noinline
func foldWords(h, seed, o, stop uint64) uint64 {
	for ; o < stop; o += 8 {
		h = sigFold(h, mem.SyntheticWord(seed, o))
	}
	return h
}

// WritePacked streams the same bytes into w. A *Sig64 takes the
// concrete FoldPacked path; any other writer (a sha256 digest, a
// bytes.Buffer) is handed the materialized window. Neither kind of
// writer returns errors.
func (sp SyntheticPayload) WritePacked(w io.Writer, elem0, n int) {
	if s, ok := w.(*Sig64); ok {
		sp.FoldPacked(s, elem0, n)
		return
	}
	w.Write(sp.AppendPacked(nil, elem0, n))
}

// PackedSig returns a 64-bit content signature of elements
// [elem0, elem0+n) — cheap enough to attach to individual modelled
// messages at 16k ranks.
func (sp SyntheticPayload) PackedSig(elem0, n int) uint64 {
	var s Sig64
	sp.FoldPacked(&s, elem0, n)
	return s.Sum64()
}

// Sig64 is a streaming 64-bit content signature. It folds the stream
// one little-endian 8-byte word at a time, h = rotl(h^word, 29) * sigMul,
// and keeps the up to seven bytes that do not yet fill a word, so the
// sum depends on the bytes written and not on how they were split into
// Write calls. It implements io.Writer; the zero value is ready to use.
//
// The value is not FNV-1a and not a format: sender and receiver of a
// modelled message compute it in the same process and compare, and
// nothing stores it. Do not persist it or pin it in a golden file.
type Sig64 struct {
	h    uint64 // fold state XOR sigInit, so the zero value starts at sigInit
	tail uint64 // the n&7 pending bytes, little-endian from bit 0
	n    uint64 // bytes written
}

const (
	sigInit = 0xcbf29ce484222325
	sigMul  = 0x9e3779b97f4a7c15
)

func sigFold(h, w uint64) uint64 { return bits.RotateLeft64(h^w, 29) * sigMul }

// Write folds p into the signature. It never fails.
func (s *Sig64) Write(p []byte) (int, error) {
	n := len(p)
	h, tail, k := s.h^sigInit, s.tail, uint(s.n&7)
	s.n += uint64(n)
	if k != 0 {
		// Top up the pending word first.
		for len(p) > 0 && k < 8 {
			tail |= uint64(p[0]) << (8 * k)
			k++
			p = p[1:]
		}
		if k < 8 {
			s.tail = tail
			return n, nil
		}
		h, tail = sigFold(h, tail), 0
	}
	for ; len(p) >= 8; p = p[8:] {
		h = sigFold(h, binary.LittleEndian.Uint64(p))
	}
	for i, b := range p {
		tail |= uint64(b) << (8 * uint(i))
	}
	s.h, s.tail = h^sigInit, tail
	return n, nil
}

// Sum64 returns the signature of the bytes written so far: the pending
// tail and the total length folded in (so x and x followed by zero
// bytes differ), then a final avalanche. It is never zero, so zero can
// mean "unsigned" in message fields. Sum64 does not change s.
func (s *Sig64) Sum64() uint64 {
	h := sigFold(sigFold(s.h^sigInit, s.tail), s.n)
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	if h == 0 {
		return sigInit
	}
	return h
}
