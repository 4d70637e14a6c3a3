package mem

import (
	"math/bits"
	"sync"
)

// Slab pool: backing arrays of Released Spaces are recycled into the
// next Space instead of being garbage-collected. A figure sweep builds
// hundreds of short-lived simulation worlds, each with a data buffer of
// up to several hundred MB; without recycling, every world pays for
// zeroing (or page-faulting) that much fresh memory, which dominates
// the host-side profile of cmd/ddtbench.
//
// Recycled slabs are NOT zeroed. Simulation correctness never depends
// on zero-initialized memory: every producer (FillPattern, pack
// kernels, DMA and network copies) writes a region before any consumer
// reads it, and the conformance suite passes unchanged when fresh
// memory is deliberately filled with garbage. Virtual time is likewise
// unaffected — addresses come from the bump allocator and timing from
// the event engine, neither of which observes buffer contents.
//
// The pool is bounded by bytes alone. A world of 64 ranks releases
// about 150 slabs, most of them small; a bound on their number evicts
// what the next world of the same shape is about to ask for.
var poolBudget int64 = defaultPoolBudget // max bytes parked in the pool; tests lower it

// Slabs are parked by capacity class: poolClass[k] holds those with
// 2^k <= cap < 2^(k+1), newest last. Space.ensure asks for powers of
// two (or a Space's whole size), so a class is almost always slabs of
// one size, and parking, handing out and evicting are a push or a pop.
var (
	poolMu    sync.Mutex
	poolClass [63][][]byte
	poolBytes int64
	poolHeld  int // slabs parked, over all classes

	poolGets    int64 // getSlab calls
	poolHits    int64 // getSlab calls satisfied from the pool
	poolPuts    int64 // putSlab calls that parked a slab
	poolEvicted int64 // slabs dropped to stay under budget
)

// slabClass returns the class of a capacity c > 0.
func slabClass(c int64) int { return bits.Len64(uint64(c)) - 1 }

// PoolStats is a snapshot of the slab pool: what it holds and how well
// recycling works. HeldBytes/HeldSlabs bound the memory the pool pins
// between worlds; the hit rate is the fraction of backing-array
// requests served without a fresh allocation.
type PoolStats struct {
	HeldBytes int64
	HeldSlabs int
	Gets      int64
	Hits      int64
	Puts      int64
	Evicted   int64
}

// HitRate returns Hits/Gets (0 when no requests were made).
func (st PoolStats) HitRate() float64 {
	if st.Gets == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Gets)
}

// SlabPoolStats returns the current pool statistics.
func SlabPoolStats() PoolStats {
	poolMu.Lock()
	defer poolMu.Unlock()
	return PoolStats{
		HeldBytes: poolBytes,
		HeldSlabs: poolHeld,
		Gets:      poolGets,
		Hits:      poolHits,
		Puts:      poolPuts,
		Evicted:   poolEvicted,
	}
}

// ResetSlabPoolStats zeroes the counters (not the pool contents), so
// tests can measure a single workload's recycle behaviour.
func ResetSlabPoolStats() {
	poolMu.Lock()
	defer poolMu.Unlock()
	poolGets, poolHits, poolPuts, poolEvicted = 0, 0, 0, 0
}

// getSlab returns a recycled slab with cap >= n (sliced to length n), or
// nil if none fits. It looks in n's own class, then upward, and takes
// the newest fit. A slab much larger than the request (more than 8n and
// more than n + 32 MiB) is left for a bigger Space: handing a
// multi-hundred-MB slab to a KB-sized staging space would force the
// next big allocation to start from scratch.
func getSlab(n int64) []byte {
	return getSlabUpTo(n, max(8*n, n+(32<<20)))
}

// getSlabUpTo is getSlab for a slab of at most limit bytes.
func getSlabUpTo(n, limit int64) []byte {
	poolMu.Lock()
	defer poolMu.Unlock()
	poolGets++
	if n <= 0 {
		return nil
	}
	for k := slabClass(n); k < len(poolClass) && int64(1)<<k <= limit; k++ {
		list := poolClass[k]
		// Among powers of two the newest slab of a class always fits;
		// the scan goes further only past a Space-sized slab that is
		// smaller than n or over the limit.
		for i := len(list) - 1; i >= 0; i-- {
			c := int64(cap(list[i]))
			if c < n || c > limit {
				continue
			}
			s := list[i]
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil
			poolClass[k] = list[:len(list)-1]
			poolBytes -= c
			poolHeld--
			poolHits++
			return s[:n]
		}
	}
	return nil
}

// putSlab parks a slab for reuse. Over the byte budget it evicts from
// the smallest class up, newest first: small slabs are the cheapest to
// make again.
func putSlab(s []byte) {
	c := int64(cap(s))
	if c == 0 {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	k := slabClass(c)
	poolClass[k] = append(poolClass[k], s)
	poolBytes += c
	poolHeld++
	poolPuts++
	for k := 0; poolBytes > poolBudget && k < len(poolClass); {
		list := poolClass[k]
		last := len(list) - 1
		if last < 0 {
			k++
			continue
		}
		poolBytes -= int64(cap(list[last]))
		list[last] = nil
		poolClass[k] = list[:last]
		poolHeld--
		poolEvicted++
	}
}
