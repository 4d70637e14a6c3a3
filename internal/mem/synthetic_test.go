package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestSyntheticRandomAccess: windows generated at arbitrary offsets
// must be byte-identical to slices of the full stream — the property
// modelled payloads rely on to sign a message without the buffer.
func TestSyntheticRandomAccess(t *testing.T) {
	const n = 4096
	full := make([]byte, n)
	SyntheticAt(42, 0, full)
	for _, win := range []struct{ off, ln int64 }{
		{0, 1}, {1, 7}, {3, 17}, {8, 64}, {777, 1000}, {n - 5, 5},
	} {
		got := make([]byte, win.ln)
		SyntheticAt(42, win.off, got)
		if !bytes.Equal(got, full[win.off:win.off+win.ln]) {
			t.Fatalf("window [%d:+%d] differs from full stream", win.off, win.ln)
		}
	}
}

// TestSyntheticDistinctSeeds: different seeds must give different
// contents (same sanity bar FillPattern meets).
func TestSyntheticDistinctSeeds(t *testing.T) {
	s := NewSpace("t", Host, 1<<20)
	a, b := s.Alloc(512, 0), s.Alloc(512, 0)
	FillSynthetic(a, 1)
	FillSynthetic(b, 2)
	if Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical contents")
	}
	c := s.Alloc(512, 0)
	FillSynthetic(c, 1)
	if !Equal(a, c) {
		t.Fatal("same seed not reproducible")
	}
}

// TestSyntheticPositionDependent: the pattern must differ when the same
// seed is read as if the data sat elsewhere — shifted copies of a
// buffer can't alias to a false verification match.
func TestSyntheticPositionDependent(t *testing.T) {
	a := make([]byte, 256)
	b := make([]byte, 256)
	SyntheticAt(7, 0, a)
	SyntheticAt(7, 8, b)
	if bytes.Equal(a[8:], b[:248]) == false {
		// b IS the stream at offset 8; a[8:] is the same stream region.
		t.Fatal("offset window disagrees with stream")
	}
	if bytes.Equal(a, b) {
		t.Fatal("offset 0 and 8 windows identical")
	}
}

// TestSpaceRetiredCeiling: no matter how many times a Space outgrows
// its backing, it retains at most spaceMaxRetired dead arrays, and the
// pinned retired bytes stay below ~2x the live backing.
func TestSpaceRetiredCeiling(t *testing.T) {
	s := NewSpace("grow", Host, 1<<30)
	for i := 0; i < 16; i++ {
		s.Alloc(4096<<i, 0)
	}
	if got := s.RetiredSlabs(); got > spaceMaxRetired {
		t.Fatalf("retired slabs %d, ceiling %d", got, spaceMaxRetired)
	}
	if rb, live := s.RetiredBytes(), int64(cap(s.data)); rb >= 2*live {
		t.Fatalf("retired bytes %d not bounded by live backing %d", rb, live)
	}
	if s.FootprintBytes() != int64(cap(s.data))+s.RetiredBytes() {
		t.Fatal("FootprintBytes inconsistent")
	}
	s.Release()
	if s.RetiredSlabs() != 0 || s.FootprintBytes() != 0 {
		t.Fatal("Release did not clear retired list")
	}
}

// syntheticAtRef is the byte-at-a-time definition of the stream, kept
// as the reference the word-wise SyntheticAt is compared against.
func syntheticAtRef(seed uint64, off int64, dst []byte) {
	if off < 0 {
		panic("mem: negative synthetic pattern offset")
	}
	i := 0
	for i < len(dst) {
		o := off + int64(i)
		w := patternWord(seed, uint64(o)>>3)
		for j := uint(o) & 7; j < 8 && i < len(dst); j++ {
			dst[i] = byte(w>>(8*j)) ^ byte(off+int64(i))
			i++
		}
	}
}

// checkSyntheticAt compares one window against the reference, with
// guard bytes on both sides to catch writes outside dst.
func checkSyntheticAt(t *testing.T, seed uint64, off int64, n int) {
	t.Helper()
	const guard = 0xa5
	got := bytes.Repeat([]byte{guard}, n+16)
	want := bytes.Repeat([]byte{guard}, n+16)
	SyntheticAt(seed, off, got[8:8+n])
	syntheticAtRef(seed, off, want[8:8+n])
	if !bytes.Equal(got, want) {
		t.Fatalf("SyntheticAt(%d, %d, [%d]) differs from the byte-wise reference", seed, off, n)
	}
}

// TestSyntheticAtMatchesReference: every head alignment, every short
// length around the word and two-word boundaries, a page, and offsets
// where the offset byte wraps and where the word index is large.
func TestSyntheticAtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lens := []int{4096}
	for n := 0; n <= 33; n++ {
		lens = append(lens, n)
	}
	for _, base := range []int64{0, 248, 1<<40 - 16, 1 << 40} {
		for a := int64(0); a < 8; a++ {
			for _, n := range lens {
				checkSyntheticAt(t, rng.Uint64(), base+a, n)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		checkSyntheticAt(t, rng.Uint64(), rng.Int63n(1<<41), rng.Intn(200))
	}
}

// TestSyntheticWordIsSyntheticAt: the exported aligned word is the eight
// bytes the byte-wise reference puts at that offset, little-endian —
// around the points where the offset byte wraps, at large word indices,
// and at random aligned offsets.
func TestSyntheticWordIsSyntheticAt(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	offs := []int64{0, 8, 240, 248, 256, 264, 1<<40 - 8, 1 << 40, 1<<62 - 8}
	for i := 0; i < 2000; i++ {
		offs = append(offs, rng.Int63n(1<<41)&^7)
	}
	var want [8]byte
	for _, off := range offs {
		seed := rng.Uint64()
		syntheticAtRef(seed, off, want[:])
		if got := SyntheticWord(seed, uint64(off)); got != binary.LittleEndian.Uint64(want[:]) {
			t.Fatalf("SyntheticWord(%d, %d) = %#x, the stream holds %#x", seed, off, got, binary.LittleEndian.Uint64(want[:]))
		}
	}
}

// TestSyntheticAtNegativeOffsetPanics: a negative stream offset is a
// caller bug, not a window.
func TestSyntheticAtNegativeOffsetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SyntheticAt(-1) did not panic")
		}
	}()
	SyntheticAt(1, -1, make([]byte, 8))
}

func FuzzSyntheticAt(f *testing.F) {
	f.Add(uint64(42), int64(1), 7)
	f.Add(uint64(42), int64(3), 17)
	f.Add(uint64(7), int64(777), 1000)
	f.Add(uint64(2000), int64(1<<40+5), 33)
	f.Add(uint64(3000), int64(255), 9)
	f.Fuzz(func(t *testing.T, seed uint64, off int64, n int) {
		if off < 0 || n < 0 || n > 1<<16 {
			t.Skip()
		}
		checkSyntheticAt(t, seed, off, n)
	})
}

var syntheticSink [8 << 10]byte

func BenchmarkSyntheticAt(b *testing.B) {
	for _, c := range []struct {
		name string
		off  int64
		n    int
	}{
		{"aligned", 0, len(syntheticSink)},
		{"unaligned", 3, len(syntheticSink) - 8},
		{"64B", 96, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.n))
			for i := 0; i < b.N; i++ {
				SyntheticAt(7, c.off, syntheticSink[:c.n])
			}
		})
	}
}
