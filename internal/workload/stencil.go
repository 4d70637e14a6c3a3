package workload

import (
	"crypto/sha256"
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

// Stencil is the halo-exchange family — the paper's core use case on
// the cluster fabric: a periodic 2D/3D domain decomposed over the job
// group, each rank owning a padded local box on its GPU whose boundary
// faces are real subarray datatypes (shapes.HaloFace). Every iteration
// refills the interior from the seeded generator, sweeps the dimensions
// in order exchanging both faces per dimension (propagating received
// halos onward, so edges and corners arrive without diagonal messages),
// runs the stencil kernel, and verifies every halo cell against the
// neighbour's generator at the wrapped global coordinate.
type Stencil struct {
	Procs []int // process grid (2 or 3 dims, each >= 2); product == group size
	Box   []int // interior cells per rank per dim (default 16 each)
	Iters int   // sweeps (default 2)
}

// Name is "stencil2d" or "stencil3d".
func (s Stencil) Name() string { return fmt.Sprintf("stencil%dd", len(s.Procs)) }

func (s Stencil) withDefaults() Stencil {
	if s.Iters == 0 {
		s.Iters = 2
	}
	if len(s.Box) == 0 {
		s.Box = make([]int, len(s.Procs))
		for d := range s.Box {
			s.Box[d] = 16
		}
	}
	return s
}

// Instance validates the process grid against the group size.
func (s Stencil) Instance(rc RunContext) (Instance, error) {
	s = s.withDefaults()
	if len(s.Procs) < 2 || len(s.Procs) > 3 || len(s.Box) != len(s.Procs) {
		return nil, fmt.Errorf("stencil: bad grid %v / box %v", s.Procs, s.Box)
	}
	cells := 1
	for d, p := range s.Procs {
		if p < 2 {
			return nil, fmt.Errorf("stencil: dim %d has %d ranks, need >= 2 for a torus exchange", d, p)
		}
		if s.Box[d] < 1 {
			return nil, fmt.Errorf("stencil: dim %d box %d", d, s.Box[d])
		}
		cells *= p
	}
	if cells != rc.Group.Size() {
		return nil, fmt.Errorf("stencil: grid %v needs %d ranks, group has %d", s.Procs, cells, rc.Group.Size())
	}
	return &stencilInstance{cfg: s, rc: rc}, nil
}

type stencilInstance struct {
	cfg Stencil
	rc  RunContext
}

// cellWord is the generator value mix(seed, g..., it) of the cell at
// wrapped global coordinate g in step it, given row = mix(seed, g[:n-1]...)
// and last = g[n-1]. mix is a left fold, so a sweep folds the seed and
// the leading coordinates once per innermost row and only these two
// steps per cell.
func cellWord(row, last uint64, it int) uint64 {
	return splitmix64(splitmix64(row^last) ^ uint64(it))
}

func (in *stencilInstance) Run(m *mpi.Rank) ([]byte, error) {
	g := in.rc.Group
	lr := g.LocalRank(m)
	dims := in.cfg.Procs
	box := in.cfg.Box
	nd := len(dims)

	// My coordinates in the C-ordered process grid.
	coords := make([]int, nd)
	rem := lr
	for d := nd - 1; d >= 0; d-- {
		coords[d] = rem % dims[d]
		rem /= dims[d]
	}
	// neighbour returns the local rank offset by dir along dim d
	// (periodic).
	neighbour := func(d, dir int) int {
		n := 0
		for dd := 0; dd < nd; dd++ {
			c := coords[dd]
			if dd == d {
				c = (c + dir + dims[dd]) % dims[dd]
			}
			n = n*dims[dd] + c
		}
		return n
	}

	padded := make([]int, nd)
	total := make([]int, nd) // global torus extent per dim
	cells := 1
	for d := range dims {
		padded[d] = box[d] + 2
		total[d] = dims[d] * box[d]
		cells *= padded[d]
	}
	buf := m.Malloc(int64(cells) * 8)

	// offset walks the padded C-order array.
	offset := func(idx []int) int {
		o := 0
		for d := 0; d < nd; d++ {
			o = o*padded[d] + idx[d]
		}
		return o * 8
	}
	// global maps a padded-local index (0 = low halo) on dim d to the
	// wrapped global coordinate.
	global := func(d, local int) int {
		return ((coords[d]*box[d] + local - 1) + total[d]) % total[d]
	}

	// rows visits the first index vector of every innermost row of the
	// box [lo, hi): idx[d] in [lo[d], hi[d]) for d < last, idx[last] ==
	// lo[last]. f gets the generator prefix of the row and the byte
	// offset of that first cell, and walks the row itself.
	last := nd - 1
	gidx := make([]uint64, nd)
	rows := func(lo, hi []int, f func(idx []int, row uint64, off int)) {
		idx := make([]int, nd)
		copy(idx, lo)
		for {
			for d := 0; d < last; d++ {
				gidx[d] = uint64(global(d, idx[d]))
			}
			f(idx, mix(in.rc.Seed, gidx[:last]...), offset(idx))
			d := last - 1
			for ; d >= 0; d-- {
				idx[d]++
				if idx[d] < hi[d] {
					break
				}
				idx[d] = lo[d]
			}
			if d < 0 {
				return
			}
		}
	}

	interiorLo := make([]int, nd)
	interiorHi := make([]int, nd)
	zero := make([]int, nd)
	for d := range dims {
		interiorLo[d] = 1
		interiorHi[d] = padded[d] - 1
	}

	// The face types are committed once, as an application commits them:
	// per dimension the planes sent down and up and the halos they land
	// in, each spanning the full padded extent of the dimensions swept
	// before it, so edge and corner cells propagate without diagonal
	// messages.
	type faces struct {
		low, high    *datatype.Datatype
		sends, recvs []mpi.Neighbor
	}
	halo := make([]faces, nd)
	for d := range halo {
		low, high := shapes.HaloFace(padded, d, 1), shapes.HaloFace(padded, d, padded[d]-2)
		lowHalo, highHalo := shapes.HaloFace(padded, d, 0), shapes.HaloFace(padded, d, padded[d]-1)
		down, up := neighbour(d, -1), neighbour(d, +1)
		halo[d] = faces{
			low: low, high: high,
			sends: []mpi.Neighbor{{Buf: buf, Dt: low, Count: 1, Peer: down}, {Buf: buf, Dt: high, Count: 1, Peer: up}},
			recvs: []mpi.Neighbor{{Buf: buf, Dt: highHalo, Count: 1, Peer: up}, {Buf: buf, Dt: lowHalo, Count: 1, Peer: down}},
		}
	}

	dev := m.Engine().Device()
	h := sha256.New()

	for it := 0; it < in.cfg.Iters; it++ {
		// New field values for this sweep. The array's bytes are looked
		// up again wherever communication may have come between: device
		// memory that grows (a rendezvous ring's first allocation) moves.
		raw := buf.Bytes()
		rows(interiorLo, interiorHi, func(_ []int, row uint64, off int) {
			for j := interiorLo[last]; j < interiorHi[last]; j++ {
				putWord(raw, off, cellWord(row, uint64(global(last, j)), it))
				off += 8
			}
		})

		// Dimension-ordered halo sweep: my low plane goes down and my
		// high plane up, my high halo comes from up and my low halo from
		// down, in one exchange per dimension. The dimensions stay in
		// order: a face carries the halos already received.
		for d := range halo {
			f := &halo[d]
			lo := m.Proc().BeginBytes("app.halo.face", f.low.Size())
			lo.SetDetail(f.low.Name())
			hi := m.Proc().BeginBytes("app.halo.face", f.high.Size())
			hi.SetDetail(f.high.Name())
			g.NeighborAlltoallw(m, f.sends, f.recvs)
			hi.End()
			lo.End()
		}

		// The stencil update kernel: ~2 reads + 1 write per cell.
		dev.Compute(m.Engine().Stream(), int64(cells)*8*3, 0).Await(m.Proc())

		// Every cell of the padded box — interior and all received
		// halos, including edges and corners — must now equal the
		// generator at its wrapped global coordinate.
		var verr error
		raw = buf.Bytes()
		rows(zero, padded, func(idx []int, row uint64, off int) {
			for j := 0; j < padded[last] && verr == nil; j++ {
				gidx[last] = uint64(global(last, j))
				if got, want := getWord(raw, off), cellWord(row, gidx[last], it); got != want {
					cell := append(append([]int(nil), idx[:last]...), j)
					verr = fmt.Errorf("stencil: step %d cell %v (global %v) = %x, want %x", it, cell, gidx, got, want)
				}
				off += 8
			}
		})
		if verr != nil {
			return nil, verr
		}
		h.Write(raw)
	}
	return h.Sum(nil), nil
}

var _ Workload = Stencil{}
