package mpi

import (
	"slices"
	"sync"

	"gpuddt/internal/mem"
)

// Library staging is a pinned arena (DESIGN decision 28). Every host
// buffer the library allocates for itself — eager bounce buffers and
// other scratch (Rank.scratch), collective stages (takeStage) and host
// staging rings (ringBuf) — is carved from its rank's arena, a host
// space of its own. The rank's node HCA registers the arena's whole
// address range when the world is built, as Open MPI's openib memory
// pool registers its eager and send free lists once, at MPI_Init: no
// virtual time passes, and a registration of library staging is a
// hit. User buffers (Malloc, MallocHost) are registered as they are
// used, under their own addresses.
//
// An arena outlives its world, as the eager and receive records do
// (records.go): World.Close resets it and its pools — the bump
// allocator back to address 0, every pooled buffer and every datatype
// a stage named dropped — and puts it on a process-wide shelf, and a
// rank of the next world takes one from there. It hands out the same
// addresses a fresh arena would and its pools start empty, so no
// virtual time depends on what it held before; what it keeps is the
// backing bytes and the pools' arrays, so a rebuilt world's staging
// neither grows nor allocates.

// arenaBytes is the address range of an arena: what its HCA registers.
// Its backing grows lazily with what the rank carves from it, so no
// registration ever happens mid-run.
const arenaBytes = 1 << 30

// arena is a rank's pinned staging memory, the pools of buffers it has
// handed out and been given back, and — so that their arrays outlive
// the world too — the rank's matching lists and request batches.
type arena struct {
	space *mem.Space

	scratchPool    []mem.Buffer
	scratchPooled  int64 // bytes currently retained in scratchPool
	scratchPeak    int64 // high-water mark of retained bytes
	scratchLargest int64 // largest single scratch request seen

	rings  [][]mem.Buffer // released staging rings: host, then by GPU (ringPool)
	stages []*stage       // released collective stages
	spare  []*stage       // stage records of a closed world, without a buffer

	posted  []*recvReq // receives awaiting a matching arrival
	unexp   []*rtsMsg  // unexpected arrivals awaiting a recv
	batches []*batch   // batches not in use, empty (batch.wait)
}

// alloc carves n bytes from the arena.
func (a *arena) alloc(n int64) mem.Buffer { return a.space.Alloc(n, 256) }

// reset makes the arena as a fresh one, but for its backing bytes and
// its pools' and lists' arrays: every buffer it pooled — the device
// rings too — is dropped and the allocator restarts at address 0, the
// closed world's stage records become spares, naming nothing, and the
// matching lists are emptied (a world closed mid-run may leave entries;
// a pooled batch is empty already).
func (a *arena) reset() {
	a.space.Reset()
	clear(a.scratchPool)
	a.scratchPool = a.scratchPool[:0]
	a.scratchPooled, a.scratchPeak, a.scratchLargest = 0, 0, 0
	for i, pool := range a.rings {
		clear(pool)
		a.rings[i] = pool[:0]
	}
	for _, s := range a.stages {
		s.buf = mem.Buffer{}
		clear(s.blocks[:cap(s.blocks)])
		a.spare = append(a.spare, s)
	}
	clear(a.stages)
	a.stages = a.stages[:0]
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
		return &arena{space: mem.NewSpace("staging", mem.Host, arenaBytes)}
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
