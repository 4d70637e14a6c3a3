package conformance

import (
	"fmt"
	"math/rand"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
)

// The v-variant oracle: seeded irregular count/displacement
// configurations for Alltoallv and Allgatherv, executed on a real world
// and verified byte-for-byte against the independent reference walker.
// The generator deliberately produces the awkward inputs — zero counts,
// fully empty ranks, displacement permutations (blocks laid out in
// shuffled order), datatype-tree payloads — and the checker compares
// whole memory images, so gap bytes are proven untouched. Every
// configuration answers to the same reference: the hierarchical and the
// flat Allgatherv, and both the world Alltoallv and the group Alltoallv
// over permuted ranks that an application makes.

// vcollMaxCount bounds per-peer element counts (small: a world exchanges
// size² blocks per case).
const vcollMaxCount = 3

// vcollTreeOptions keeps one element small enough for size² blocks to
// stay cheap while still exercising real datatype trees.
func vcollTreeOptions() TreeOptions {
	return TreeOptions{MaxElems: 128, MaxSpan: 2 << 10, MaxDepth: 3}
}

// vcollTree derives the element datatype for a case: a generated tree
// that is usable as a v-collective element — non-empty, non-negative
// offsets (buffers start at the datatype origin), positive extent, and
// overlap-free up to the maximum per-peer count (unpack into an
// overlapping layout is undefined).
func vcollTree(seed uint64) *Tree {
	for s := seed; ; s += 7919 {
		sp := GenSpecOpts(s, vcollTreeOptions())
		if sp.Size() == 0 || extentOf(sp) <= 0 {
			continue
		}
		m := ReferenceMap(sp, vcollMaxCount)
		neg := false
		for _, off := range m {
			if off < 0 {
				neg = true
				break
			}
		}
		if neg || HasOverlap(m) {
			continue
		}
		return &Tree{
			Seed:  s,
			Spec:  sp,
			Dt:    sp.Build(),
			Count: vcollMaxCount,
			Map:   m,
			Span:  Span(sp, vcollMaxCount),
		}
	}
}

// VCase is one seeded irregular-collective configuration for a world of
// Size ranks: the element datatype, the Alltoallv send/recv matrices
// with permuted displacements, and an Allgatherv distribution.
type VCase struct {
	Seed uint64
	Size int
	Tree *Tree

	SCounts, SDispls [][]int // [src][dst], displs in extent units
	RCounts, RDispls [][]int // [dst][src]
	AGCounts         []int   // per-rank allgatherv contribution
	AGDispls         []int

	sspan, rspan []int64 // per-rank buffer spans in bytes
	agspan       int64
}

// permLayout assigns each block a displacement slot in a shuffled order,
// so displacements are non-monotonic but provably overlap-free, with
// occasional one-extent gaps.
func permLayout(rng *rand.Rand, tr *Tree, counts []int) (displs []int, span int64) {
	ext := extentOf(tr.Spec)
	displs = make([]int, len(counts))
	var cur int64
	for _, j := range rng.Perm(len(counts)) {
		displs[j] = int(cur)
		if counts[j] == 0 {
			continue
		}
		blocks := (Span(tr.Spec, counts[j]) + ext - 1) / ext
		cur += blocks + int64(rng.Intn(2))
	}
	return displs, (cur + 1) * ext
}

// GenVCase derives a case from (seed, size): the tree, an irregular
// count matrix with zeros and (when size > 2) one fully empty rank, and
// permuted displacement layouts.
func GenVCase(seed uint64, size int) *VCase {
	sc := make([][]int, size)
	rng := rand.New(rand.NewSource(int64(seed)*0x9e37 + 17))
	empty := -1
	if size > 2 {
		empty = rng.Intn(size)
	}
	for i := range sc {
		sc[i] = make([]int, size)
		for j := range sc[i] {
			if i == empty || j == empty {
				continue
			}
			sc[i][j] = rng.Intn(vcollMaxCount + 1)
		}
	}
	vc := NewVCaseCounts(seed, sc)
	if empty >= 0 {
		vc.AGCounts[empty] = 0
	}
	return vc
}

// NewVCaseCounts builds a case from an explicit send matrix (the fuzzer
// entry point); layouts and the Allgatherv distribution stay seeded.
func NewVCaseCounts(seed uint64, scounts [][]int) *VCase {
	size := len(scounts)
	vc := &VCase{
		Seed:    seed,
		Size:    size,
		Tree:    vcollTree(seed),
		SCounts: scounts,
		SDispls: make([][]int, size),
		RCounts: make([][]int, size),
		RDispls: make([][]int, size),
		sspan:   make([]int64, size),
		rspan:   make([]int64, size),
	}
	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5bd1e995))
	for i := 0; i < size; i++ {
		vc.RCounts[i] = make([]int, size)
		for j := 0; j < size; j++ {
			vc.RCounts[i][j] = scounts[j][i]
		}
	}
	for i := 0; i < size; i++ {
		vc.SDispls[i], vc.sspan[i] = permLayout(rng, vc.Tree, vc.SCounts[i])
		vc.RDispls[i], vc.rspan[i] = permLayout(rng, vc.Tree, vc.RCounts[i])
	}
	vc.AGCounts = make([]int, size)
	for r := range vc.AGCounts {
		vc.AGCounts[r] = rng.Intn(vcollMaxCount + 1)
	}
	vc.AGDispls, vc.agspan = permLayout(rng, vc.Tree, vc.AGCounts)
	return vc
}

// VConfig selects the world a case runs on: shape, hierarchical or flat
// collectives, data placement, and protocol regime.
type VConfig struct {
	Nodes, RPN int
	Flat       bool // force the flat fallback (and the world Alltoallv)
	OnHost     bool // host buffers (CPU datatype engine) instead of GPU
	Eager      bool // eager bounce-buffer protocol instead of rendezvous
}

func (c VConfig) String() string {
	path := "hier"
	if c.Flat {
		path = "flat"
	}
	place := "gpu"
	if c.OnHost {
		place = "host"
	}
	proto := "rendezvous"
	if c.Eager {
		proto = "eager"
	}
	return fmt.Sprintf("%dx%d/%s/%s/%s", c.Nodes, c.RPN, path, place, proto)
}

func (c VConfig) world() *mpi.World {
	tun := &mpi.Tuning{Eager: mpi.Eager(1)}
	if c.Eager {
		tun.Eager = mpi.Eager(1 << 30)
	}
	if c.Flat {
		tun.Collectives = mpi.CollFlat
	}
	spec := cluster.Spec{Nodes: c.Nodes, GPUsPerNode: c.RPN, RanksPerNode: c.RPN}
	return mpi.NewWorld(spec.Tuned(tun).Config())
}

// shiftMap returns the reference map of (spec, count) displaced by
// displ extent units.
func (vc *VCase) shiftMap(count, displ int) []int64 {
	m := ReferenceMap(vc.Tree.Spec, count)
	delta := int64(displ) * extentOf(vc.Tree.Spec)
	out := make([]int64, len(m))
	for k, off := range m {
		out[k] = off + delta
	}
	return out
}

func (vc *VCase) errf(what string, cfg VConfig, format string, args ...interface{}) error {
	return fmt.Errorf("seed %d (%s, size %d) [%s %s]: %s",
		vc.Seed, vc.Tree.Dt.Name(), vc.Size, what, cfg, fmt.Sprintf(format, args...))
}

// checkQuiescent asserts nothing leaked out of the run (World.Quiescent).
func (vc *VCase) checkQuiescent(w *mpi.World, what string, cfg VConfig) error {
	if err := w.Quiescent(); err != nil {
		return vc.errf(what, cfg, "%v", err)
	}
	return nil
}

// CheckAlltoallv runs the case's Alltoallv on the configured world and
// verifies every rank's full receive image — scattered block bytes and
// untouched gaps alike — against the reference walker. A topology-aware
// world runs it as Group.Alltoallv over a seeded permutation of its
// ranks, the collective the MoE workload makes: the case's member i is
// then world rank perm[i].
func (vc *VCase) CheckAlltoallv(cfg VConfig) error {
	size := cfg.Nodes * cfg.RPN
	if size != vc.Size {
		return fmt.Errorf("VCase for %d ranks run on %d", vc.Size, size)
	}
	srcs := make([][]byte, size)
	wants := make([][]byte, size)
	for i := 0; i < size; i++ {
		srcs[i] = pattern(vc.sspan[i], vc.Seed+uint64(i))
		wants[i] = pattern(vc.rspan[i], vc.Seed+uint64(1000+i))
	}
	for i := 0; i < size; i++ { // expected image of receiver i
		for s := 0; s < size; s++ {
			c := vc.RCounts[i][s]
			if c == 0 {
				continue
			}
			packed := ReferencePack(vc.shiftMap(c, vc.SDispls[s][i]), srcs[s])
			ReferenceUnpack(vc.shiftMap(c, vc.RDispls[i][s]), wants[i], packed)
		}
	}

	w := cfg.world()
	defer w.Close()
	what := "alltoallv"
	var g *mpi.Group
	if w.TopologyAware() {
		what = "group alltoallv"
		g = w.NewGroup(rand.New(rand.NewSource(int64(vc.Seed) ^ 0x2545f491)).Perm(size))
	}
	dt := vc.Tree.Dt
	got := make([][]byte, size)
	w.Run(func(m *mpi.Rank) {
		me := m.Rank()
		if g != nil {
			me = g.LocalRank(m)
		}
		alloc := m.Malloc
		if cfg.OnHost {
			alloc = m.MallocHost
		}
		send, recv := alloc(vc.sspan[me]), alloc(vc.rspan[me])
		copy(send.Bytes(), srcs[me])
		copy(recv.Bytes(), pattern(vc.rspan[me], vc.Seed+uint64(1000+me)))
		if g != nil {
			g.Alltoallv(m, send, vc.SCounts[me], vc.SDispls[me], dt,
				recv, vc.RCounts[me], vc.RDispls[me], dt)
		} else {
			m.Alltoallv(send, vc.SCounts[me], vc.SDispls[me], dt,
				recv, vc.RCounts[me], vc.RDispls[me], dt)
		}
		got[me] = append([]byte(nil), recv.Bytes()...)
	})
	if err := vc.checkQuiescent(w, what, cfg); err != nil {
		return err
	}
	for i := 0; i < size; i++ {
		if d := firstDiff(wants[i], got[i]); d >= 0 {
			return vc.errf(what, cfg, "member %d image byte %d differs: got %#x want %#x",
				i, d, got[i][d], wants[i][d])
		}
	}
	return nil
}

// CheckAllgatherv runs the case's Allgatherv in place and verifies every
// rank's full buffer image against the reference walker. Each rank's
// contribution is whatever its seeded initial image holds in its own
// block, per MPI in-place semantics.
func (vc *VCase) CheckAllgatherv(cfg VConfig) error {
	size := cfg.Nodes * cfg.RPN
	if size != vc.Size {
		return fmt.Errorf("VCase for %d ranks run on %d", vc.Size, size)
	}
	bases := make([][]byte, size)
	for r := 0; r < size; r++ {
		bases[r] = pattern(vc.agspan, vc.Seed+uint64(2000+r))
	}
	wants := make([][]byte, size)
	for r := 0; r < size; r++ {
		wants[r] = append([]byte(nil), bases[r]...)
		for s := 0; s < size; s++ {
			c := vc.AGCounts[s]
			if c == 0 {
				continue
			}
			m := vc.shiftMap(c, vc.AGDispls[s])
			ReferenceUnpack(m, wants[r], ReferencePack(m, bases[s]))
		}
	}

	w := cfg.world()
	defer w.Close()
	got := make([][]byte, size)
	w.Run(func(m *mpi.Rank) {
		me := m.Rank()
		var buf mem.Buffer
		if cfg.OnHost {
			buf = m.MallocHost(vc.agspan)
		} else {
			buf = m.Malloc(vc.agspan)
		}
		copy(buf.Bytes(), bases[me])
		m.Allgatherv(buf, vc.AGCounts, vc.AGDispls, vc.Tree.Dt)
		got[me] = append([]byte(nil), buf.Bytes()...)
	})
	if err := vc.checkQuiescent(w, "allgatherv", cfg); err != nil {
		return err
	}
	for r := 0; r < size; r++ {
		if d := firstDiff(wants[r], got[r]); d >= 0 {
			return vc.errf("allgatherv", cfg, "rank %d image byte %d differs: got %#x want %#x",
				r, d, got[r][d], wants[r][d])
		}
	}
	return nil
}
