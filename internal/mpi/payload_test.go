package mpi

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
)

// TestPayloadGeneratorMatchesPack: packing a Fill()ed buffer with the
// reference CPU converter must give exactly the bytes WritePacked
// generates — the equivalence the modelled-payload mode rests on.
func TestPayloadGeneratorMatchesPack(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)
	const count = 6
	sp := SyntheticPayload{Seed: 3017, Dt: dt, Count: count}

	s := mem.NewSpace("host", mem.Host, 1<<22)
	buf := s.Alloc(sp.Span(), 0)
	sp.Fill(buf)

	c := datatype.NewConverter(dt, count)
	packed := make([]byte, c.Total())
	c.Pack(packed, buf.Bytes())

	var gen bytes.Buffer
	sp.WritePacked(&gen, 0, count)
	if !bytes.Equal(gen.Bytes(), packed) {
		t.Fatal("generated packed bytes differ from converter-packed buffer")
	}

	// Sub-ranges must match the corresponding packed window.
	var win bytes.Buffer
	sp.WritePacked(&win, 2, 3)
	lo, hi := 2*dt.Size(), 5*dt.Size()
	if !bytes.Equal(win.Bytes(), packed[lo:hi]) {
		t.Fatal("element window [2,5) differs from packed window")
	}
}

// TestPayloadSigProperties: signatures are deterministic, content- and
// range-sensitive, and never zero.
func TestPayloadSigProperties(t *testing.T) {
	dt := shapes.SubMatrix(16, 8, 12)
	sp := SyntheticPayload{Seed: 9, Dt: dt, Count: 8}
	a := sp.PackedSig(0, 4)
	if a != sp.PackedSig(0, 4) {
		t.Fatal("signature not deterministic")
	}
	if a == sp.PackedSig(4, 4) {
		t.Fatal("disjoint ranges collide")
	}
	if a == (SyntheticPayload{Seed: 10, Dt: dt, Count: 8}).PackedSig(0, 4) {
		t.Fatal("seeds collide")
	}
	if a == 0 {
		t.Fatal("signature must never be zero (zero means unsigned)")
	}
	var empty Sig64
	if empty.Sum64() == 0 {
		t.Fatal("empty signature must not be zero")
	}
}

// TestPayloadSigMatchesSha: WritePacked must feed any io.Writer the
// same stream (sha256 for digests, Sig64 for messages).
func TestPayloadSigMatchesSha(t *testing.T) {
	dt := shapes.SubMatrix(4, 4, 6)
	sp := SyntheticPayload{Seed: 77, Dt: dt, Count: 3}
	h1, h2 := sha256.New(), sha256.New()
	sp.WritePacked(h1, 0, 3)
	sp.WritePacked(h2, 0, 3)
	if !bytes.Equal(h1.Sum(nil), h2.Sum(nil)) {
		t.Fatal("two identical streams hashed differently")
	}
}

// sigOf signs b written in chunks of the given sizes, then the rest in
// one Write.
func sigOf(b []byte, chunks ...int) uint64 {
	var s Sig64
	for _, c := range chunks {
		if c > len(b) {
			c = len(b)
		}
		s.Write(b[:c])
		b = b[c:]
	}
	s.Write(b)
	return s.Sum64()
}

// TestSig64ChunkInvariant: the sum is a function of the bytes written,
// not of how Write calls split them — what lets FoldPacked batch
// blocks through a scratch of any size.
func TestSig64ChunkInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1024, 1031} {
		msg := make([]byte, n)
		rng.Read(msg)
		want := sigOf(msg)
		if got := sigOf(msg, 7, 9); got != want {
			t.Fatalf("len %d: 7+9+rest split signs %#x, one Write %#x", n, got, want)
		}
		var s Sig64
		for i := range msg {
			s.Write(msg[i : i+1])
			s.Sum64() // reading the sum mid-stream must not disturb it
		}
		if s.Sum64() != want {
			t.Fatalf("len %d: byte-at-a-time signs %#x, one Write %#x", n, s.Sum64(), want)
		}
		for trial := 0; trial < 50; trial++ {
			var chunks []int
			for left := n; left > 0; {
				c := 1 + rng.Intn(20)
				chunks = append(chunks, c)
				left -= c
			}
			if got := sigOf(msg, chunks...); got != want {
				t.Fatalf("len %d: split %v signs %#x, one Write %#x", n, chunks, got, want)
			}
		}
	}
}

// TestSig64ContentSensitive: appended zero bytes and every single-bit
// flip of a 1 KiB message change the sum, and no sum is zero.
func TestSig64ContentSensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{0, 1, 7, 8, 9, 1024} {
		msg := make([]byte, n, n+9)
		rng.Read(msg)
		base := sigOf(msg)
		if base == 0 {
			t.Fatalf("len %d: zero signature", n)
		}
		for pad := 1; pad <= 9; pad++ {
			if sigOf(msg[:n+pad]) == base {
				t.Fatalf("len %d: %d appended zero bytes sign the same", n, pad)
			}
		}
	}
	msg := make([]byte, 1024)
	rng.Read(msg)
	base := sigOf(msg)
	for bit := 0; bit < 8*len(msg); bit++ {
		msg[bit/8] ^= 1 << (bit % 8)
		if sigOf(msg) == base {
			t.Fatalf("flipping bit %d left the signature unchanged", bit)
		}
		msg[bit/8] ^= 1 << (bit % 8)
	}
}

// TestPackedSigNoAllocs: signing a message allocates nothing — no copy
// of the datatype's blocks, no escaping scratch, no escaping Sig64 —
// through PackedSig and through WritePacked's *Sig64 path alike, and
// both sign the bytes AppendPacked materializes.
func TestPackedSigNoAllocs(t *testing.T) {
	sp := SyntheticPayload{Seed: 3001, Dt: shapes.SubMatrix(16, 8, 12), Count: 64}
	if n := testing.AllocsPerRun(100, func() { sigSink += sp.PackedSig(8, 16) }); n != 0 {
		t.Errorf("PackedSig allocates %v times per call", n)
	}
	var sig Sig64
	if n := testing.AllocsPerRun(100, func() { sp.WritePacked(&sig, 8, 16) }); n != 0 {
		t.Errorf("WritePacked(&sig) allocates %v times per call", n)
	}
	block := sp.AppendPacked(nil, 8, 16)
	if n := testing.AllocsPerRun(100, func() { block = sp.AppendPacked(block[:0], 8, 16) }); n != 0 {
		t.Errorf("AppendPacked into a reused buffer allocates %v times per call", n)
	}
	if got, want := sp.PackedSig(8, 16), sigOf(block); got != want {
		t.Errorf("PackedSig %#x, signature of the materialized window %#x", got, want)
	}
}

// TestFoldPackedWordsMatchBytes: FoldPacked signs the bytes
// AppendPacked materializes whichever way it reads them — word by word
// off the generator for layouts of doubles, through the scratch for
// everything else and for a Sig64 standing inside a word — and
// allocates nothing either way. Two windows go into each signature, so
// the second fold starts wherever the first one left it.
func TestFoldPackedWordsMatchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, c := range []struct {
		name string
		dt   *datatype.Datatype
	}{
		{"submatrix", shapes.SubMatrix(16, 8, 12)},
		{"contiguous doubles", datatype.Contiguous(5, datatype.Float64)},
		{"lower triangular", shapes.LowerTriangular(64)},
		{"byte vector, odd stride", datatype.Vector(5, 3, 7, datatype.Byte)},
		{"block at offset 4", datatype.Hindexed([]int{2}, []int64{4}, datatype.Float64)},
		{"extent 20", datatype.Resized(datatype.Contiguous(2, datatype.Float64), 0, 20)},
		{"empty", datatype.Contiguous(0, datatype.Byte)},
	} {
		const count = 24
		sp := SyntheticPayload{Seed: rng.Uint64(), Dt: c.dt, Count: count}
		for _, pending := range []int{0, 3} {
			for trial := 0; trial < 40; trial++ {
				var got, want Sig64
				got.Write([]byte{1, 2, 3}[:pending])
				want.Write([]byte{1, 2, 3}[:pending])
				for w := 0; w < 2; w++ {
					elem0 := rng.Intn(count + 1)
					n := rng.Intn(count + 1 - elem0)
					sp.FoldPacked(&got, elem0, n)
					want.Write(sp.AppendPacked(nil, elem0, n))
				}
				if got != want {
					t.Fatalf("%s, %d pending bytes: FoldPacked leaves %+v, Write(AppendPacked) %+v", c.name, pending, got, want)
				}
			}
			var s Sig64
			s.Write([]byte{1, 2, 3}[:pending])
			if n := testing.AllocsPerRun(20, func() { sp.FoldPacked(&s, 3, count-3) }); n != 0 {
				t.Errorf("%s, %d pending bytes: FoldPacked allocates %v times per call", c.name, pending, n)
			}
		}
	}
}

var sigSink uint64

func BenchmarkSig64(b *testing.B) {
	msg := make([]byte, 64<<10)
	mem.SyntheticAt(7, 0, msg)
	b.SetBytes(int64(len(msg)))
	var s Sig64
	for i := 0; i < b.N; i++ {
		s.Write(msg)
	}
	sigSink = s.Sum64()
}

// BenchmarkFoldPacked signs what one modelled alltoall column does at
// 1024 ranks, 1024 blocks of the 1 KiB sub-matrix: word by word off the
// generator, and — the same bytes into a Sig64 that stands inside a
// word — through the scratch that serves unaligned input.
func BenchmarkFoldPacked(b *testing.B) {
	sp := SyntheticPayload{Seed: 3000, Dt: shapes.SubMatrix(16, 8, 12), Count: 1024}
	for _, c := range []struct {
		name    string
		pending int
	}{{"words", 0}, {"scratch", 3}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(sp.PackedBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var s Sig64
				s.Write([]byte{1, 2, 3}[:c.pending])
				sp.FoldPacked(&s, 0, 1024)
				sigSink += s.Sum64()
			}
		})
	}
}
