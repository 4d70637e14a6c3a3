package mpi

import (
	"crypto/sha256"
	"runtime"
	"strings"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// stagedRun runs, on a fresh world of cfg, a job that stages through
// every pool of its ranks — an eager device Alltoall (bounce buffers,
// and device stages for its local copies), a held eager Bcast (a
// stage), a noncontiguous host rendezvous across nodes (the staged
// sender's local ring and the receiver's host ring) into a contiguous
// host buffer (a user registration), and a host Reduce (accumulators) —
// with blocks of block bytes. It returns the virtual time, the
// registration misses, a digest of every rank's results and its ranks'
// arenas.
func stagedRun(t *testing.T, cfg Config, block int) (end sim.Time, misses int64, digest [32]byte, arenas map[*mem.Space]bool) {
	t.Helper()
	w := NewWorld(cfg)
	rec := sim.NewRecorder(w.Engine())
	size := w.Size()
	far := size - 1 // on the last node
	eager := datatype.Contiguous(block, datatype.Byte)
	vec := datatype.Vector(2*block, 8, 16, datatype.Byte) // 16 blocks: rendezvous-sized
	results := make([][]byte, size)
	w.Run(func(m *Rank) {
		me := m.Rank()
		send, recv := m.Malloc(int64(size*block)), m.Malloc(int64(size*block))
		mem.FillPattern(send, uint64(me))
		m.Alltoall(send, eager, 1, recv, eager, 1)
		bc := m.Malloc(int64(block))
		if me == 0 {
			mem.FillPattern(bc, 99)
		}
		m.Bcast(bc, eager, 1, 0)
		var p2p mem.Buffer
		switch me {
		case 0:
			src := m.MallocHost(vec.Span(1))
			mem.FillPattern(src, 7)
			m.Send(src, vec, 1, far, 5)
		case far:
			p2p = m.MallocHost(vec.Size())
			m.Recv(p2p, datatype.Contiguous(int(vec.Size()), datatype.Byte), 1, 0, 5)
		}
		f := datatype.Contiguous(block/8, datatype.Float64)
		hs, hr := m.MallocHost(f.Size()), m.MallocHost(f.Size())
		mem.FillPattern(hs, uint64(me)+1)
		m.Reduce(hs, hr, f, 1, OpMax, 0)
		results[me] = append(append([]byte{}, recv.Bytes()...), bc.Bytes()...)
		if me == 0 {
			results[me] = append(results[me], hr.Bytes()...)
		}
		if p2p.IsValid() {
			results[me] = append(results[me], p2p.Bytes()...)
		}
	})
	checkQuiescent(t, w, "staged run")
	h := sha256.New()
	for _, r := range results {
		h.Write(r)
	}
	h.Sum(digest[:0])
	pooled := make(map[mem.Kind]int)
	arenas = make(map[*mem.Space]bool)
	for _, m := range w.ranks {
		arenas[m.Staging()] = true
		for _, pl := range m.pools {
			for _, free := range pl.free {
				if len(free) > 0 {
					pooled[pl.space.Kind()] += len(free)
				}
			}
		}
	}
	for _, k := range []mem.Kind{mem.Host, mem.Device} {
		if pooled[k] == 0 {
			t.Fatalf("the job gave back no staging buffer of %v memory; it must stage in every kind", k)
		}
	}
	end, misses = w.Engine().Now(), rec.Counter("ib.reg.miss")
	w.Close()
	return end, misses, digest, arenas
}

// TestArenaHistoryIndependent: a rank's arena comes from the shelf as
// its last world left it, grown and with pooled buffers of its own, but
// nothing a world measures depends on that. World B, then a larger world
// A with larger blocks, then B again: the second B takes A's arenas,
// grown for A's blocks, and still ends at the same virtual time with
// the same registration misses and the same bytes.
func TestArenaHistoryIndependent(t *testing.T) {
	b := blockedConfig(2, 2, false)
	a := blockedConfig(4, 4, false)
	end, misses, digest, _ := stagedRun(t, b, 8<<10)
	if misses == 0 {
		t.Fatal("world B registers no user buffer; the miss count proves nothing")
	}
	_, _, _, fromA := stagedRun(t, a, 32<<10)
	end2, misses2, digest2, arenas := stagedRun(t, b, 8<<10)
	for sp := range arenas {
		if !fromA[sp] {
			t.Fatal("the second world B has an arena that world A did not leave on the shelf")
		}
	}
	if end2 != end || misses2 != misses || digest2 != digest {
		t.Fatalf("world B after world A: %v, %d registration misses, digest %x; before it: %v, %d, %x",
			end2, misses2, digest2[:4], end, misses, digest[:4])
	}
}

// stagingFuncs are the functions that carve, pool and shelve staging.
var stagingFuncs = []string{
	"(*Rank).take", "(*Rank).give", "(*Rank).pool", "class",
	"(*Rank).takeStage", "(*Rank).release",
	"(*arena).", "takeArena", "shelveArenas",
}

// listFuncs grow the matching lists and the request batches the arena
// carries. They count only what they allocate themselves, as the
// innermost frame of this package: what they call — a message's
// records, the world's fabric paths — is not the arena's.
var listFuncs = []string{"(*Rank).irecv", "(*Rank).arrived", "(*Rank).batch", "(*batch)."}

// stagingAllocs returns the heap objects allocated so far, as the
// memory profile has them, below a staging function of this package or
// in a list function (listFuncs), and not in a space's growth
// (mem.Space.ensure): a device ring grows the world's own device
// memory, which is built anew with every world, and an arena's growth
// is what the caller checks by its backing.
func stagingAllocs() int64 {
	for range 3 { // the profile publishes a cycle's allocations two collections late
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for inner := true; ; {
			f, more := frames.Next()
			if f.Function == "gpuddt/internal/mem.(*Space).ensure" {
				break
			}
			if name, ok := strings.CutPrefix(f.Function, "gpuddt/internal/mpi."); ok {
				if funcOf(stagingFuncs, name) || inner && funcOf(listFuncs, name) {
					total += r.AllocObjects
					break
				}
				inner = false
			}
			if !more {
				break
			}
		}
	}
	return total
}

// funcOf reports whether name is one of funcs; an entry ending in a dot
// names every method of its type.
func funcOf(funcs []string, name string) bool {
	for _, s := range funcs {
		if strings.HasPrefix(name, s) && (strings.HasSuffix(s, ".") || name == s) {
			return true
		}
	}
	return false
}

// TestStagingAllocatesNothing pins what the staging of a rebuilt world
// costs the heap: nothing. A 64-rank world of coll_real's shape runs an
// eager Alltoall — bounce buffers, the hierarchical algorithm's host
// stages, device rings for its local copies — a hierarchical Allgather
// and a ring NeighborAlltoallw, and is closed; the next world of the
// same shape takes the arenas back from the shelf with their backing,
// pools, stage records, matching lists and request batches, so while
// it is built, run and closed no arena's backing changes and no heap
// object is allocated below a staging function or in a list function
// (the memory profile samples every allocation; a device ring's growth
// of the new world's device memory is that memory's, not staging's).
// Without the shelf the rebuilt world's staging made 288 objects and
// grew all 64 arenas; with the matching lists on the rank rather than
// the arena, irecv's and arrived's appends made 208.
func TestStagingAllocatesNothing(t *testing.T) {
	cfg := blockedConfig(16, 4, false)
	cfg.IB.Topo = ib.FatTree(4, 2)
	all := make([]int, len(cfg.Ranks))
	for r := range all {
		all[r] = r
	}
	round := func() (grown int) {
		w := NewWorld(cfg)
		ring := w.NewGroup(all)
		w.Run(func(m *Rank) {
			before := m.Staging().FootprintBytes()
			n := int64(m.Size()) << 10
			m.Alltoall(m.Malloc(n), datatype.Byte, 1<<10, m.Malloc(n), datatype.Byte, 1<<10)
			m.Allgather(m.Malloc(n), datatype.Byte, 1<<10)
			face := func(peer int) Neighbor {
				return Neighbor{Buf: m.Malloc(1 << 10), Dt: datatype.Byte, Count: 1 << 10, Peer: peer}
			}
			left, right := (m.Rank()+m.Size()-1)%m.Size(), (m.Rank()+1)%m.Size()
			ring.NeighborAlltoallw(m, []Neighbor{face(left), face(right)}, []Neighbor{face(left), face(right)})
			if m.Staging().FootprintBytes() != before {
				grown++
			}
		})
		w.Close()
		return grown
	}
	round()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := stagingAllocs()
	grown := round()
	if got := stagingAllocs() - before; got != 0 || grown != 0 {
		t.Errorf("a rebuilt 64-rank world's staging and matching lists allocated %d objects and grew %d arenas, want 0 and 0", got, grown)
	}
}

// TestGiveForeignSpacePanics: a rank takes back only what it stages in
// — its arena, and the memory of its node's GPUs. A user host buffer
// and another node's device memory are the caller's error.
func TestGiveForeignSpacePanics(t *testing.T) {
	w := NewWorld(twoNodes())
	defer w.Close()
	m := w.RankHandle(0)
	for what, b := range map[string]mem.Buffer{
		"a user host buffer":           m.MallocHost(64),
		"another node's device memory": w.Node(1).GPU(0).Mem().Alloc(64, 0),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("giving back %s did not panic", what)
				}
			}()
			m.give(b)
		}()
	}
	checkQuiescent(t, w, "nothing given back")
}
