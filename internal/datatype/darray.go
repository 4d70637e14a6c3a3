package datatype

import "fmt"

// Distrib selects the per-dimension distribution of a Darray
// (MPI_Type_create_darray).
type Distrib int

// Distribution kinds.
const (
	// DistribNone keeps the whole dimension on every process.
	DistribNone Distrib = iota
	// DistribBlock assigns one contiguous block per process.
	DistribBlock
	// DistribCyclic deals blocks of darg elements round-robin.
	DistribCyclic
)

// DargDefault computes the default distribution argument
// (MPI_DISTRIBUTE_DFLT_DARG).
const DargDefault = -1

// runsFor computes the index runs of dimension extent gsize owned by
// process coordinate p of np processes under the given distribution:
// each run is a (start, len) pair of global indices, ascending.
func runsFor(dist Distrib, darg, gsize, p, np int) [][2]int {
	switch dist {
	case DistribNone:
		if np != 1 {
			panic("datatype: DistribNone requires one process in the dimension")
		}
		return [][2]int{{0, gsize}}
	case DistribBlock:
		b := darg
		if b == DargDefault {
			b = (gsize + np - 1) / np
		}
		if b*np < gsize {
			panic(fmt.Sprintf("datatype: block size %d too small for %d over %d procs", b, gsize, np))
		}
		start := p * b
		if start >= gsize {
			return nil
		}
		n := b
		if start+n > gsize {
			n = gsize - start
		}
		return [][2]int{{start, n}}
	case DistribCyclic:
		b := darg
		if b == DargDefault {
			b = 1
		}
		var runs [][2]int
		for start := p * b; start < gsize; start += np * b {
			n := b
			if start+n > gsize {
				n = gsize - start
			}
			runs = append(runs, [2]int{start, n})
		}
		return runs
	default:
		panic("datatype: unknown distribution")
	}
}

// Darray returns the datatype selecting process rank's portion of a
// gsizes-shaped global array distributed over a psizes process grid
// (MPI_Type_create_darray). The type's extent is the full global array,
// so processes can read/write their pieces of a shared file or buffer
// at offset zero. Supported distributions per dimension: none, block,
// cyclic(k).
func Darray(size, rank int, gsizes []int, distribs []Distrib, dargs []int, psizes []int, order Order, base *Datatype) *Datatype {
	checkBase(base, "Darray")
	ndims := len(gsizes)
	if len(distribs) != ndims || len(dargs) != ndims || len(psizes) != ndims {
		panic("datatype: Darray argument length mismatch")
	}
	grid := 1
	for _, ps := range psizes {
		if ps <= 0 {
			panic("datatype: non-positive process grid dimension")
		}
		grid *= ps
	}
	if grid != size {
		panic(fmt.Sprintf("datatype: process grid %d != size %d", grid, size))
	}
	if rank < 0 || rank >= size {
		panic("datatype: rank out of range")
	}

	// Process coordinates, row-major over psizes (MPI convention).
	coords := make([]int, ndims)
	r := rank
	for i := ndims - 1; i >= 0; i-- {
		coords[i] = r % psizes[i]
		r /= psizes[i]
	}

	// Per-dimension index runs owned by this process.
	runs := make([][][2]int, ndims)
	var local int64 = 1
	for d := 0; d < ndims; d++ {
		runs[d] = runsFor(distribs[d], dargs[d], gsizes[d], coords[d], psizes[d])
		var owned int64
		for _, rn := range runs[d] {
			owned += int64(rn[1])
		}
		local *= owned
	}

	// dims ordered slowest to fastest varying.
	dims := make([]int, ndims)
	for i := range dims {
		if order == OrderC {
			dims[i] = i
		} else {
			dims[i] = ndims - 1 - i
		}
	}
	strides := make([]int64, ndims)
	st := int64(1)
	for i := ndims - 1; i >= 0; i-- {
		strides[dims[i]] = st
		st *= int64(gsizes[dims[i]])
	}

	var buf [nameLen]byte
	d := &Datatype{
		kind: kindSubarray, // behaves like a subarray: full-array extent
		name: text(buf[:0]).s("darray(rank ").i(int64(rank)).s(" of ").i(int64(size)).s(", ").ints(gsizes).s(" over ").ints(psizes).s(", ").s(base.name).s(")").String(),
		size: local * base.size,
		lb:   0,
		ub:   st * base.Extent(),
	}
	var walk func(level int, elemOff int64)
	walk = func(level int, elemOff int64) {
		dim := dims[level]
		if level == ndims-1 {
			for _, rn := range runs[dim] {
				d.flat = instantiateN(d.flat, base, (elemOff+int64(rn[0]))*base.Extent(), int64(rn[1]))
			}
			return
		}
		for _, rn := range runs[dim] {
			for j := 0; j < rn[1]; j++ {
				walk(level+1, elemOff+(int64(rn[0])+int64(j))*strides[dim])
			}
		}
	}
	if local > 0 {
		walk(0, 0)
	}
	d.sig = appendSig(nil, base, local)
	return d.finish()
}
