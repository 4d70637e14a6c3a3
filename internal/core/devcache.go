// The DEV descriptor cache: converted unit lists are kept in GPU memory
// so repeat transfers skip conversion (§3.2, "few MBs of GPU memory",
// §5.1). The seed kept an unbounded map per engine; this file bounds it:
// one byte-budgeted LRU per device, shared by every engine on that
// device, with retired entry slabs recycled to cut allocation churn on
// the conversion path.

package core

import (
	"container/list"
	"sync"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
)

// DefaultCacheBytes is the default per-device descriptor-cache budget.
// It is sized so every layout in the committed experiment sweeps fits
// without eviction (the cache bounds pathological workloads, it does not
// alter the calibrated ones): the largest, the 8192x8192 matrix
// transpose, needs ~1.6 GB of entries.
const DefaultCacheBytes = 2 << 30

// devKey identifies a cached unit list. The owning engine is part of
// the key: engines share the device-wide byte budget but never each
// other's entries, since a cached list encodes engine-specific split
// options (unit size) and a hit legitimately skips per-engine
// conversion work that the simulation charges virtual time for.
type devKey struct {
	eng   *Engine
	dt    *datatype.Datatype
	count int
}

type devItem struct {
	key   devKey
	val   *cacheVal
	bytes int64
}

// DevCacheStats is a point-in-time snapshot of a device cache.
type DevCacheStats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
	Items     int
	UsedBytes int64
	Budget    int64
}

// DevCache is the bounded, device-wide DEV descriptor cache: an LRU over
// (engine, datatype, count) unit lists with a byte budget covering the
// GPU-resident descriptor arrays. It is mutex-guarded; engines of one
// device run under one simulation scheduler, but independent benchmark
// worlds may compile plans and probe caches from concurrent goroutines.
type DevCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	items  map[devKey]*list.Element
	lru    list.List // front = most recently used

	slabs [][]Entry // retired entry slices, reused by converting packers

	hits, misses, stores, evictions int64
}

func newDevCache(budget int64) *DevCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	return &DevCache{budget: budget, items: make(map[devKey]*list.Element)}
}

// Budget returns the byte budget.
func (c *DevCache) Budget() int64 { return c.budget }

// Stats returns a snapshot of the cache counters.
func (c *DevCache) Stats() DevCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DevCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Items:     len(c.items),
		UsedBytes: c.used,
		Budget:    c.budget,
	}
}

// lookup returns the cached unit list for k, marking it most recently
// used, or nil on a miss.
func (c *DevCache) lookup(k devKey) *cacheVal {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*devItem).val
}

// contains reports whether k is cached, without touching recency or
// hit/miss statistics (the store path's duplicate check).
func (c *DevCache) contains(k devKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[k]
	return ok
}

// admits reports whether a list of the given byte size can ever be
// cached (it must fit the budget on its own).
func (c *DevCache) admits(bytes int64) bool { return bytes <= c.budget }

// store inserts a converted unit list with its device-resident
// descriptor buffer, evicting least recently used lists until the
// budget holds. evicted receives the device buffers of displaced lists
// so the caller can release them in its memory space.
func (c *DevCache) store(k devKey, val *cacheVal, bytes int64) (evicted []mem.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[k]; ok {
		return nil
	}
	for c.used+bytes > c.budget && c.lru.Len() > 0 {
		el := c.lru.Back()
		it := el.Value.(*devItem)
		c.lru.Remove(el)
		delete(c.items, it.key)
		c.used -= it.bytes
		c.evictions++
		c.retireLocked(it.val.entries)
		if it.val.devBuf.IsValid() {
			evicted = append(evicted, it.val.devBuf)
		}
	}
	c.items[k] = c.lru.PushFront(&devItem{key: k, val: val, bytes: bytes})
	c.used += bytes
	c.stores++
	return evicted
}

// grabSlab hands out an entry slice of length 0 and capacity at least n
// for a converting packer to build into: a retired one when one is large
// enough, otherwise a fresh one.
func (c *DevCache) grabSlab(n int) []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.slabs) - 1; i >= 0; i-- {
		if s := c.slabs[i]; cap(s) >= n {
			last := len(c.slabs) - 1
			c.slabs[i], c.slabs[last] = c.slabs[last], nil
			c.slabs = c.slabs[:last]
			return s
		}
	}
	if n < 1024 {
		n = 1024
	}
	return make([]Entry, 0, n)
}

// retire pools an entry slice nothing references any more.
func (c *DevCache) retire(s []Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retireLocked(s)
}

// retireLocked pools an entry slice for reuse. Bounded so a burst of
// evictions cannot pin unbounded host memory.
func (c *DevCache) retireLocked(s []Entry) {
	if cap(s) == 0 || len(c.slabs) >= 8 {
		return
	}
	c.slabs = append(c.slabs, s[:0])
}
