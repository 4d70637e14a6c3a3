package mem

import "testing"

func TestAllocAlignment(t *testing.T) {
	s := NewSpace("s", Device, 1<<20)
	a := s.Alloc(10, 0)
	if a.Addr()%256 != 0 {
		t.Fatalf("default alignment: addr %d", a.Addr())
	}
	b := s.Alloc(10, 1024)
	if b.Addr()%1024 != 0 {
		t.Fatalf("1KB alignment: addr %d", b.Addr())
	}
	if b.Addr() < a.Addr()+a.Len() {
		t.Fatalf("overlapping allocations: %v %v", a, b)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s := NewSpace("s", Host, 100)
	s.Alloc(200, 1)
}

func TestSliceBounds(t *testing.T) {
	s := NewSpace("s", Host, 1000)
	b := s.Alloc(100, 1)
	sub := b.Slice(10, 20)
	if sub.Len() != 20 || sub.Addr() != b.Addr()+10 {
		t.Fatalf("slice = %v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range slice")
		}
	}()
	b.Slice(90, 20)
}

func TestBytesWritesAreVisible(t *testing.T) {
	s := NewSpace("s", Device, 1000)
	b := s.Alloc(16, 1)
	b.Bytes()[3] = 0xAB
	again := s.BufferAt(b.Addr(), b.Len())
	if again.Bytes()[3] != 0xAB {
		t.Fatal("write not visible through BufferAt")
	}
}

func TestBytesCapacityClamped(t *testing.T) {
	s := NewSpace("s", Host, 1000)
	a := s.Alloc(16, 1)
	bs := a.Bytes()
	if cap(bs) != 16 {
		t.Fatalf("cap = %d, want 16", cap(bs))
	}
}

func TestCopyAndEqual(t *testing.T) {
	s := NewSpace("s", Host, 1000)
	a := s.Alloc(64, 1)
	b := s.Alloc(64, 1)
	FillPattern(a, 7)
	if Equal(a, b) {
		t.Fatal("distinct buffers compare equal")
	}
	if n := Copy(b, a); n != 64 {
		t.Fatalf("copied %d", n)
	}
	if !Equal(a, b) {
		t.Fatal("copy not equal")
	}
}

func TestFillPatternDistinctSeeds(t *testing.T) {
	s := NewSpace("s", Host, 1000)
	a := s.Alloc(64, 1)
	b := s.Alloc(64, 1)
	FillPattern(a, 1)
	FillPattern(b, 2)
	if Equal(a, b) {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestBufferAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s := NewSpace("s", Host, 100)
	s.BufferAt(90, 20)
}

// TestResetReusesAddressesAndBacking: a reset space hands out the
// addresses a fresh one would, on the backing it already has; Shrink
// trades a backing larger than its last allocations needed for one of
// their size.
func TestResetReusesAddressesAndBacking(t *testing.T) {
	s := NewSpace("s", Host, 1<<30)
	a := s.Alloc(3000, 0)
	s.Alloc(100<<10, 0) // grows past the first array
	if s.RetiredSlabs() == 0 || s.UsedBacking() != 128<<10 {
		t.Fatalf("after 103 KiB: %d retired arrays, %d bytes needed", s.RetiredSlabs(), s.UsedBacking())
	}
	s.Reset()
	if s.RetiredSlabs() != 0 || s.UsedBacking() != 0 || s.FootprintBytes() != 128<<10 {
		t.Fatalf("reset: %d retired, %d needed, footprint %d; want 0, 0 and the 128 KiB array kept",
			s.RetiredSlabs(), s.UsedBacking(), s.FootprintBytes())
	}
	if b := s.Alloc(3000, 0); b.Addr() != a.Addr() {
		t.Fatalf("first allocation after reset at %d, fresh at %d", b.Addr(), a.Addr())
	}
	s.Alloc(100<<10, 0)
	if s.RetiredSlabs() != 0 || s.FootprintBytes() != 128<<10 {
		t.Fatal("the same allocations after a reset grew the space")
	}
	s.Reset()
	s.Alloc(5000, 0)
	need := s.UsedBacking() // 8 KiB of its 128
	s.Reset()
	if s.FootprintBytes() != 128<<10 {
		t.Fatalf("reset after a smaller use keeps %d bytes, want the 128 KiB array", s.FootprintBytes())
	}
	s.Shrink(need)
	if s.FootprintBytes() != 8<<10 {
		t.Fatalf("shrunk to %d bytes, want 8 KiB", s.FootprintBytes())
	}
}
