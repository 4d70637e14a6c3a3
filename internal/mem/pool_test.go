package mem

import "testing"

// drainPool empties the global pool so tests see a known state.
func drainPool() {
	poolMu.Lock()
	poolClass = [len(poolClass)][][]byte{}
	poolBytes, poolHeld = 0, 0
	poolMu.Unlock()
}

// setPoolBudget lowers the byte budget for one test.
func setPoolBudget(t *testing.T, b int64) {
	old := poolBudget
	poolBudget = b
	t.Cleanup(func() { poolBudget = old })
}

func TestSlabPoolRoundTrip(t *testing.T) {
	drainPool()
	putSlab(make([]byte, 1<<16))
	got := getSlab(1 << 16)
	if got == nil || cap(got) != 1<<16 || len(got) != 1<<16 {
		t.Fatalf("getSlab(64K) = len %d cap %d, want recycled 64K slab", len(got), cap(got))
	}
	if getSlab(1<<16) != nil {
		t.Fatal("pool should be empty after the slab was taken")
	}
}

func TestSlabPoolRejectsOversizedHandout(t *testing.T) {
	drainPool()
	setPoolBudget(t, 1<<30) // the race build's default would evict it
	putSlab(make([]byte, 1<<30))
	if s := getSlab(1 << 12); s != nil {
		t.Fatalf("a 1 GB slab must not serve a 4 KB request (cap %d)", cap(s))
	}
	if s := getSlab(1 << 29); s == nil {
		t.Fatal("a 1 GB slab should serve a 512 MB request")
	}
}

// TestSlabPoolBudgetEvictsSmallest: bytes are the only bound. Any number
// of slabs parks under the budget; over it the smallest class goes first
// and the large slabs, the expensive ones to make again, stay.
func TestSlabPoolBudgetEvictsSmallest(t *testing.T) {
	drainPool()
	ResetSlabPoolStats()
	setPoolBudget(t, 1<<20)
	for i := 0; i < 100; i++ {
		putSlab(make([]byte, 1<<12))
	}
	if st := SlabPoolStats(); st.HeldSlabs != 100 || st.Evicted != 0 {
		t.Fatalf("100 x 4K under a 1M budget: %+v, want all held", st)
	}
	putSlab(make([]byte, 1<<19))
	putSlab(make([]byte, 1<<18)) // 400K + 512K + 256K: 144K over
	st := SlabPoolStats()
	if st.HeldBytes > poolBudget || st.Evicted != 36 || st.HeldSlabs != 66 {
		t.Fatalf("over budget by 36 x 4K: %+v", st)
	}
	if getSlab(1<<19) == nil || getSlab(1<<18) == nil {
		t.Fatal("eviction took a large slab while 4K slabs were parked")
	}
	// One slab larger than everything else together: every smaller class
	// is emptied, in ascending order, before the budget holds again.
	putSlab(make([]byte, 1<<13))
	putSlab(make([]byte, 1<<20))
	if st := SlabPoolStats(); st.HeldSlabs != 1 || st.HeldBytes != 1<<20 {
		t.Fatalf("after a budget-sized slab: %+v, want it alone", st)
	}
}

// TestSlabPoolSkipsUnfitInOwnClass: a Space capped below a power of two
// parks a slab of that odd size, so one class can hold slabs smaller
// than a request of the same class; the newest fit is found past them.
func TestSlabPoolSkipsUnfitInOwnClass(t *testing.T) {
	drainPool()
	putSlab(make([]byte, 5000))
	putSlab(make([]byte, 4096))
	if s := getSlab(5000); s == nil || cap(s) != 5000 {
		t.Fatalf("getSlab(5000) = cap %d, want the 5000-byte slab behind the 4K one", cap(s))
	}
	if s := getSlab(5000); s != nil {
		t.Fatalf("a %d-byte slab served a 5000-byte request", cap(s))
	}
}

func TestSpaceReleaseRecyclesBacking(t *testing.T) {
	drainPool()
	s := NewSpace("s", Host, 1<<20)
	b := s.Alloc(1<<14, 0)
	FillPattern(b, 7)
	// Grow past the first power-of-two class so a slab is retired.
	s.Alloc(1<<16, 0)
	s.Release()
	if n := SlabPoolStats().HeldSlabs; n < 2 {
		t.Fatalf("Release parked %d slabs, want current + retired", n)
	}
	// A new space must be able to reuse the backing without zeroing;
	// contents are unspecified, the allocator only promises the length.
	s2 := NewSpace("s2", Host, 1<<20)
	b2 := s2.Alloc(1<<16, 0)
	if got := int64(len(b2.Bytes())); got != 1<<16 {
		t.Fatalf("recycled alloc len = %d", got)
	}
	s2.Release()
}

// TestPoolStats: the pool must report held bytes and a recycle hit
// rate that reflects actual traffic.
func TestPoolStats(t *testing.T) {
	drainPool()
	ResetSlabPoolStats()
	if miss := getSlab(1 << 16); miss != nil {
		t.Fatal("empty pool served a slab")
	}
	putSlab(make([]byte, 1<<16))
	st := SlabPoolStats()
	if st.HeldSlabs != 1 || st.HeldBytes != 1<<16 || st.Puts != 1 {
		t.Fatalf("after one put: %+v", st)
	}
	if hit := getSlab(1 << 16); hit == nil {
		t.Fatal("pool did not serve the parked slab")
	}
	st = SlabPoolStats()
	if st.Gets != 2 || st.Hits != 1 {
		t.Fatalf("gets/hits = %d/%d, want 2/1", st.Gets, st.Hits)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %.2f, want 0.50", got)
	}
	if st.HeldSlabs != 0 || st.HeldBytes != 0 {
		t.Fatalf("pool not empty after handout: %+v", st)
	}
}

// TestPoolStatsEviction: over-budget parks count as evictions, and a
// slab that alone exceeds the budget is not kept.
func TestPoolStatsEviction(t *testing.T) {
	drainPool()
	ResetSlabPoolStats()
	setPoolBudget(t, 8<<12)
	for i := 0; i < 8+3; i++ {
		putSlab(make([]byte, 1<<12))
	}
	st := SlabPoolStats()
	if st.Evicted != 3 || st.HeldSlabs != 8 || st.HeldBytes != 8<<12 {
		t.Fatalf("11 x 4K into a budget of 8: %+v", st)
	}
	putSlab(make([]byte, 1<<16))
	if st := SlabPoolStats(); st.HeldSlabs != 0 || st.HeldBytes != 0 || st.Evicted != 12 {
		t.Fatalf("a slab over the whole budget: %+v, want an empty pool", st)
	}
}

// HitRate returns Hits/Gets (0 when no requests were made).
func (st PoolStats) HitRate() float64 {
	if st.Gets == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Gets)
}
