package workload

import (
	"crypto/sha256"
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
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
	// Every rank's padded box has the same shape, so the face types are
	// committed once for the job, as an application commits them once:
	// per dimension the planes sent down and up and the halos they land
	// in, each spanning the full padded extent of the dimensions swept
	// before it, so edge and corner cells propagate without diagonal
	// messages.
	in := &stencilInstance{cfg: s, rc: rc, padded: make([]int, len(s.Box))}
	for d, b := range s.Box {
		in.padded[d] = b + 2
	}
	in.faces = make([]faceTypes, len(s.Box))
	for d := range in.faces {
		top := in.padded[d] - 1
		in.faces[d] = faceTypes{
			low: shapes.HaloFace(in.padded, d, 1), high: shapes.HaloFace(in.padded, d, top-1),
			lowHalo: shapes.HaloFace(in.padded, d, 0), highHalo: shapes.HaloFace(in.padded, d, top),
		}
	}
	return in, nil
}

type stencilInstance struct {
	cfg    Stencil
	rc     RunContext
	padded []int       // the local box with its halo layer, per dim
	faces  []faceTypes // per dim, shared by the job's ranks
}

// faceTypes are one dimension's planes: the two a rank sends and the two
// halos it receives into.
type faceTypes struct {
	low, high, lowHalo, highHalo *datatype.Datatype
}

// cellFold and cellWord split the generator value mix(seed, g..., it) of
// the cell at wrapped global coordinate g in step it: with row =
// mix(seed, g[:n-1]...) and last = g[n-1], it is
// cellWord(cellFold(row, last), it). mix is a left fold, so a rank folds
// each cell's coordinates once and a sweep pays one step per cell.
func cellFold(row, last uint64) uint64 { return mem.Mix64(row ^ last) }

func cellWord(fold uint64, it int) uint64 { return mem.Mix64(fold ^ uint64(it)) }

// stencilRank is what a rank of a stencil job keeps, one allocation:
// its coordinates in the process grid (at most three dimensions), the
// global torus extent per dimension, the index scratch of the fold, and
// per dimension d the four faces it exchanges at nb[4d:4d+4] — its low
// plane down and its high plane up, then its high halo from up and its
// low halo from down.
type stencilRank struct {
	coords, total, idx [3]int
	gidx               [3]uint64
	nb                 [12]mpi.Neighbor
}

func (in *stencilInstance) Run(m *mpi.Rank) ([]byte, error) {
	g := in.rc.Group
	lr := g.LocalRank(m)
	dims := in.cfg.Procs
	box := in.cfg.Box
	nd := len(dims)
	st := new(stencilRank)

	// My coordinates in the C-ordered process grid.
	rem := lr
	for d := nd - 1; d >= 0; d-- {
		st.coords[d] = rem % dims[d]
		rem /= dims[d]
	}
	// neighbour returns the local rank offset by dir along dim d
	// (periodic).
	neighbour := func(d, dir int) int {
		n := 0
		for dd := 0; dd < nd; dd++ {
			c := st.coords[dd]
			if dd == d {
				c = (c + dir + dims[dd]) % dims[dd]
			}
			n = n*dims[dd] + c
		}
		return n
	}

	padded := in.padded
	last := nd - 1
	cells, rows := 1, 1 // padded cells, interior rows
	for d := range dims {
		st.total[d] = dims[d] * box[d]
		cells *= padded[d]
		if d < last {
			rows *= box[d]
		}
	}
	buf := m.Malloc(int64(cells) * 8)

	// global maps a padded-local index (0 = low halo) on dim d to the
	// wrapped global coordinate.
	global := func(d, local int) int {
		return ((st.coords[d]*box[d] + local - 1) + st.total[d]) % st.total[d]
	}

	// fold[c] is the cellFold of padded cell c (C order), the part of its
	// generator value no step changes, built one innermost row at a time;
	// inner lists the first interior cell of every interior row.
	fold := make([]uint64, cells)
	inner := make([]int, 0, rows)
	idx, gidx := st.idx[:nd], st.gidx[:nd]
	for c := 0; c < cells; c += padded[last] {
		interior := true
		for d := 0; d < last; d++ {
			gidx[d] = uint64(global(d, idx[d]))
			interior = interior && idx[d] >= 1 && idx[d] < padded[d]-1
		}
		row := mix(in.rc.Seed, gidx[:last]...)
		for j := 0; j < padded[last]; j++ {
			fold[c+j] = cellFold(row, uint64(global(last, j)))
		}
		if interior {
			inner = append(inner, c+1)
		}
		for d := last - 1; d >= 0; d-- {
			if idx[d]++; idx[d] < padded[d] {
				break
			}
			idx[d] = 0
		}
	}

	// Dimension d exchanges the job's shared face types from and into
	// this rank's box.
	for d, f := range in.faces {
		down, up := neighbour(d, -1), neighbour(d, +1)
		st.nb[4*d] = mpi.Neighbor{Buf: buf, Dt: f.low, Count: 1, Peer: down}
		st.nb[4*d+1] = mpi.Neighbor{Buf: buf, Dt: f.high, Count: 1, Peer: up}
		st.nb[4*d+2] = mpi.Neighbor{Buf: buf, Dt: f.highHalo, Count: 1, Peer: up}
		st.nb[4*d+3] = mpi.Neighbor{Buf: buf, Dt: f.lowHalo, Count: 1, Peer: down}
	}

	dev := m.Engine().Device()
	h := sha256.New()

	for it := 0; it < in.cfg.Iters; it++ {
		// New field values for this sweep. The array's bytes are looked
		// up again wherever communication may have come between: device
		// memory that grows (a rendezvous ring's first allocation) moves.
		raw := buf.Bytes()
		for _, c := range inner {
			for j := c; j < c+box[last]; j++ {
				putWord(raw, 8*j, cellWord(fold[j], it))
			}
		}

		// Dimension-ordered halo sweep: my low plane goes down and my
		// high plane up, my high halo comes from up and my low halo from
		// down, in one exchange per dimension. The dimensions stay in
		// order: a face carries the halos already received.
		for d := range in.faces {
			f := &in.faces[d]
			lo := m.Proc().BeginBytes("app.halo.face", f.low.Size())
			lo.SetDetail(f.low.Name())
			hi := m.Proc().BeginBytes("app.halo.face", f.high.Size())
			hi.SetDetail(f.high.Name())
			g.NeighborAlltoallw(m, st.nb[4*d:4*d+2], st.nb[4*d+2:4*d+4])
			hi.End()
			lo.End()
		}

		// The stencil update kernel: ~2 reads + 1 write per cell.
		dev.Compute(m.Engine().Stream(), int64(cells)*8*3, 0).Await(m.Proc())

		// Every cell of the padded box — interior and all received
		// halos, including edges and corners — must now equal the
		// generator at its wrapped global coordinate.
		raw = buf.Bytes()
		for c, f := range fold {
			if got, want := getWord(raw, 8*c), cellWord(f, it); got != want {
				cell := make([]int, nd)
				for d, r := last, c; d >= 0; d-- {
					cell[d] = r % padded[d]
					r /= padded[d]
					gidx[d] = uint64(global(d, cell[d]))
				}
				return nil, fmt.Errorf("stencil: step %d cell %v (global %v) = %x, want %x", it, cell, gidx, got, want)
			}
		}
		h.Write(raw)
	}
	return h.Sum(nil), nil
}

var _ Workload = Stencil{}
