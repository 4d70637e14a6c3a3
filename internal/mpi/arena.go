package mpi

import (
	"slices"
	"strconv"
	"sync"

	"gpuddt/internal/mem"
)

// Library staging is one allocator per rank (DESIGN decision 28). Every
// buffer the library takes for itself — eager bounce buffers, fragment
// scratch, collective stages, host and device staging rings, reduction
// accumulators and ScratchHost — is taken with take and given back with
// give. Each memory space the rank stages in has one pool: its arena, a
// host space of its own, for any host memory, and one pool per GPU of
// its node for that GPU's memory. A pool serves power-of-two size
// classes from stageAlign bytes: take pops a buffer given back to the
// class of its request, or carves a new one of the class's whole size,
// and give pushes a buffer back onto the class of its length. Nothing is
// ever evicted. The spaces are bump allocators, which reclaim nothing,
// so an evicted buffer would strand its range until the world closed;
// kept, it serves the next request of its class, and a pool's footprint
// is the peak of its class's concurrent use.
//
// The rank's node HCA registers the arena's whole address range when
// the world is built, as Open MPI's openib memory pool registers its
// eager and send free lists once, at MPI_Init: no virtual time passes,
// and a registration of library staging is a hit. User buffers (Malloc,
// MallocHost) are registered as they are used, under their own
// addresses. Every class starts stageAlign-aligned, and a kernel's cost
// reads addresses only modulo the warp's bytes, which divide it, so no
// cost depends on which buffer of a class was handed out.
//
// An arena outlives its world, as the eager and receive records do
// (records.go): World.Close resets it and its pools — the bump
// allocator back to address 0, every pooled buffer dropped — and puts
// it on a process-wide shelf, and a rank of the next world takes one
// from there. It hands out the same addresses a fresh arena would and
// its pools start empty, so no virtual time depends on what it held
// before; what it keeps is the backing bytes and the pools' and lists'
// arrays, so a rebuilt world's staging neither grows nor allocates.

// arenaBytes is the address range of an arena: what its HCA registers.
// Its backing grows lazily with what the rank carves from it, so no
// registration ever happens mid-run.
const arenaBytes = 1 << 30

// stageAlign is the smallest size class and the alignment of every
// staging buffer.
const stageAlign = 256

// arena is a rank's pinned staging memory, its pools, its stage and
// scratch records and — so that their arrays outlive the world too — the
// rank's matching lists and request batches.
type arena struct {
	space     *mem.Space
	pools     []pool     // the arena's own, then one per GPU of the node (Rank.pool)
	stages    []*stage   // stage records not in use, without a buffer
	scratches []*scratch // scratch records not in use, naming no block

	posted  []*recvReq // receives awaiting a matching arrival
	unexp   []*rtsMsg  // unexpected arrivals awaiting a recv
	batches []*batch   // batches not in use, empty (batch.wait)
}

// pool holds the buffers of one memory space given back to a rank.
type pool struct {
	space *mem.Space
	free  [][]int64 // addresses by size class: class c holds stageAlign<<c bytes
}

// class returns the size class of an n-byte buffer.
func class(n int64) int {
	c := 0
	for stageAlign<<c < n {
		c++
	}
	return c
}

// take hands out n bytes of space's memory from the rank's pool for it.
func (m *Rank) take(space *mem.Space, n int64) mem.Buffer {
	pl := m.pool(space)
	m.staged++
	c := class(n)
	if c < len(pl.free) {
		if k := len(pl.free[c]) - 1; k >= 0 {
			addr := pl.free[c][k]
			pl.free[c] = pl.free[c][:k]
			return pl.space.BufferAt(addr, n)
		}
	}
	return pl.space.Alloc(stageAlign<<c, stageAlign).Slice(0, n)
}

// give returns a buffer take handed out, whole, to its pool. A buffer
// of a space the rank does not stage in is a caller's error.
func (m *Rank) give(b mem.Buffer) {
	pl := m.pool(b.Space())
	if b.Space() != pl.space {
		panic("mpi: rank " + strconv.Itoa(m.rank) + " was given " + b.String() + ", which it does not stage in")
	}
	m.staged--
	c := class(b.Len())
	for len(pl.free) <= c {
		pl.free = append(pl.free, nil)
	}
	pl.free[c] = append(pl.free[c], b.Addr())
}

// pool returns the rank's pool for space: the arena's for host memory,
// else that of the GPU of the rank's node that owns space.
func (m *Rank) pool(space *mem.Space) *pool {
	if space.Kind() == mem.Host {
		return &m.pools[0]
	}
	d := m.ctx.Node().DeviceOf(space)
	if d < 0 {
		panic("mpi: rank " + strconv.Itoa(m.rank) + " stages in no other node's device memory")
	}
	for len(m.pools) <= d+1 {
		m.pools = append(m.pools, pool{})
	}
	pl := &m.pools[d+1]
	pl.space = space
	return pl
}

// reset makes the arena as a fresh one, but for its backing bytes and
// its pools' and lists' arrays: every buffer it pooled — the device
// pools' too, whose spaces closed with the world — is dropped and the
// allocator restarts at address 0, and the matching lists are emptied
// (a world closed mid-run may leave entries; a pooled batch is empty
// already, and so is a pooled stage record, release, and a pooled
// scratch record, giveScratch).
func (a *arena) reset() {
	a.space.Reset()
	for i := range a.pools {
		for c := range a.pools[i].free {
			a.pools[i].free[c] = a.pools[i].free[c][:0]
		}
		if i > 0 {
			a.pools[i].space = nil
		}
	}
	clear(a.posted)
	clear(a.unexp)
	a.posted, a.unexp = a.posted[:0], a.unexp[:0]
}

// The shelf of closed worlds' arenas is a stack: Close shelves a
// world's arenas last rank first, so a world of the same shape built
// next takes each rank's own back, with the backing the largest of its
// uses has grown it to. It is bounded in arenas and in backing bytes.
// A world whose arenas' backing would not fit alone first shrinks each
// to what that world used (mem.Space.Shrink). To make room, the shelf
// drops the oldest arenas of earlier worlds, at the bottom, since the
// world just closed is the one a sweep builds again; an arena that
// still does not fit is dropped. A dropped arena returns its backing
// to the slab pool. Shrinking only when the backing would not fit
// matters: a repetition that cycles through worlds of one size but
// different collectives would otherwise shrink and regrow every arena
// in every world (coll_real's wall time +7 %).
const (
	arenaShelfMax   = 1024
	arenaShelfBytes = 64 << 20
)

var arenaShelf struct {
	sync.Mutex
	arenas []*arena
	bytes  int64
}

// takeArena returns an arena from the shelf, or a new one.
func takeArena() *arena {
	s := &arenaShelf
	s.Lock()
	defer s.Unlock()
	n := len(s.arenas)
	if n == 0 {
		sp := mem.NewSpace("staging", mem.Host, arenaBytes)
		return &arena{space: sp, pools: []pool{{space: sp}}}
	}
	a := s.arenas[n-1]
	s.arenas[n-1] = nil
	s.arenas = s.arenas[:n-1]
	s.bytes -= a.space.FootprintBytes()
	return a
}

// shelveArenas resets the arenas of a closed world's ranks and puts
// them on the shelf, last rank first; each rank lets go of its own.
func shelveArenas(ranks []*Rank) {
	s := &arenaShelf
	s.Lock()
	defer s.Unlock()
	var backing int64
	for _, m := range ranks {
		if m.arena != nil {
			backing += m.space.FootprintBytes() - m.space.RetiredBytes()
		}
	}
	fits := func(a *arena) bool {
		return len(s.arenas) < arenaShelfMax && s.bytes+a.space.FootprintBytes() <= arenaShelfBytes
	}
	older := len(s.arenas) // arenas of earlier worlds, at the bottom
	for i := len(ranks) - 1; i >= 0; i-- {
		a := ranks[i].arena
		if a == nil {
			continue // closed before
		}
		ranks[i].arena = nil
		need := a.space.UsedBacking()
		a.reset()
		if backing > arenaShelfBytes {
			a.space.Shrink(need)
		}
		for ; older > 0 && !fits(a); older-- {
			s.bytes -= s.arenas[0].space.FootprintBytes()
			s.arenas[0].space.Release()
			s.arenas = slices.Delete(s.arenas, 0, 1)
		}
		if !fits(a) {
			a.space.Release()
			continue
		}
		s.arenas = append(s.arenas, a)
		s.bytes += a.space.FootprintBytes()
	}
}
