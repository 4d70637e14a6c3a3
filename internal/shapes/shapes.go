// Package shapes builds the derived datatypes used throughout the
// paper's evaluation (§5): column-major sub-matrices (vector), lower
// triangular matrices (indexed), the stair-shaped triangular variant of
// Fig. 5, the transposed-matrix view of §5.2.3, and the halo-exchange
// and particle-index layouts of the motivation section.
//
// All matrix types are column-major over float64 elements, matching the
// ScaLAPACK convention the paper uses.
package shapes

import "gpuddt/internal/datatype"

// ElemSize is the element size used by the matrix workloads.
const ElemSize = 8 // float64

// SubMatrix returns the datatype of an rows x cols sub-matrix inside a
// column-major matrix with leading dimension ld: cols blocks of rows
// doubles, strided by ld (the paper's vector type "V").
func SubMatrix(rows, cols, ld int) *datatype.Datatype {
	return datatype.Vector(cols, rows, ld, datatype.Float64)
}

// FullMatrix returns the contiguous datatype of an n x n column-major
// matrix (the paper's "C" comparison type).
func FullMatrix(n int) *datatype.Datatype {
	return datatype.Contiguous(n*n, datatype.Float64)
}

// LowerTriangular returns the indexed datatype of the lower triangle of
// an n x n column-major matrix: column i keeps elements i..n-1, so block
// i has length n-i at element displacement i*n+i (the paper's "T").
func LowerTriangular(n int) *datatype.Datatype {
	bl := make([]int, n)
	displs := make([]int, n)
	for i := 0; i < n; i++ {
		bl[i] = n - i
		displs[i] = i*n + i
	}
	return datatype.Indexed(bl, displs, datatype.Float64)
}

// StairTriangular returns the stair-shaped triangular matrix of Fig. 5:
// the triangle boundary moves in steps of nb rows/columns so that every
// column in a stair group has the same length and block starts stay
// aligned, eliminating the occupancy loss of the ragged triangle. nb
// must divide n.
func StairTriangular(n, nb int) *datatype.Datatype {
	if nb <= 0 || n%nb != 0 {
		panic("shapes: stair size must divide n")
	}
	bl := make([]int, n)
	displs := make([]int, n)
	for i := 0; i < n; i++ {
		stair := i / nb * nb // top of the stair for this column group
		bl[i] = n - stair
		displs[i] = i*n + stair
	}
	return datatype.Indexed(bl, displs, datatype.Float64)
}

// Transpose returns the datatype describing an n x n column-major matrix
// traversed in transposed order: the k-th packed element is A[k/n, k%n].
// Each transposed column (= original row) is a vector of n single
// elements strided by the leading dimension; the whole view is n such
// vectors, resized so consecutive rows interleave (§5.2.3's stress test).
func Transpose(n int) *datatype.Datatype {
	row := datatype.Vector(n, 1, n, datatype.Float64) // one original row
	// Consecutive packed rows start one element apart.
	return datatype.Contiguous(n, datatype.Resized(row, 0, ElemSize))
}

// HaloColumn returns the datatype of one non-contiguous boundary column
// of an n x n row-major 2D stencil grid with halo width 1 (SHOC-style):
// n interior elements strided by the padded row length n+2.
func HaloColumn(n int) *datatype.Datatype {
	return datatype.Vector(n, 1, n+2, datatype.Float64)
}

// ParticleIndices returns the indexed datatype selecting the given
// particle slots (each a contiguous record of recordElems doubles) from
// a particle array, LAMMPS-style.
func ParticleIndices(indices []int, recordElems int) *datatype.Datatype {
	rec := datatype.Contiguous(recordElems, datatype.Float64)
	bl := make([]int, len(indices))
	displs := make([]int, len(indices))
	for i, idx := range indices {
		bl[i] = 1
		displs[i] = idx
	}
	return datatype.Indexed(bl, displs, rec)
}

// MatrixBytes returns the byte size of a full n x n float64 matrix.
func MatrixBytes(n int) int64 { return int64(n) * int64(n) * ElemSize }

// HaloFace returns the subarray datatype selecting the width-1 plane at
// index idx along dim of a padded C-order float64 array (interior cells
// plus a one-cell halo shell per dimension). The plane spans the *full*
// padded extent of every dimension before dim and only the interior of
// every dimension after it: a dimension-ordered halo exchange (sweep
// dim 0, then 1, ...) that uses these faces propagates already-received
// halo cells onward, so edge and corner neighbours arrive without
// diagonal messages — the standard trick stencil codes build from
// MPI_Type_create_subarray.
func HaloFace(padded []int, dim, idx int) *datatype.Datatype {
	sub := make([]int, len(padded))
	starts := make([]int, len(padded))
	for d := range padded {
		switch {
		case d == dim:
			sub[d], starts[d] = 1, idx
		case d < dim:
			sub[d], starts[d] = padded[d], 0
		default:
			sub[d], starts[d] = padded[d]-2, 1
		}
	}
	return datatype.Subarray(padded, sub, starts, datatype.OrderC, datatype.Float64)
}
