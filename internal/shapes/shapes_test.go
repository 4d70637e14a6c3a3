package shapes

import (
	"bytes"
	"testing"

	"gpuddt/internal/datatype"
)

func TestSubMatrixIsVector(t *testing.T) {
	d := SubMatrix(4, 3, 8)
	v, ok := d.Vector(1)
	if !ok || v.Inner != 3 || v.BlockLen != 32 || v.InnerStride != 64 {
		t.Fatalf("vector = %+v", v)
	}
	if d.Size() != 4*3*8 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestLowerTriangularSize(t *testing.T) {
	n := 6
	d := LowerTriangular(n)
	want := int64(n*(n+1)/2) * 8
	if d.Size() != want {
		t.Fatalf("size = %d, want %d", d.Size(), want)
	}
	if _, ok := d.Vector(1); ok {
		t.Fatal("triangle must not be a vector")
	}
	if d.NumBlocks() != n {
		t.Fatalf("blocks = %d", d.NumBlocks())
	}
}

func TestStairTriangularCoversTriangle(t *testing.T) {
	n, nb := 8, 4
	tri := LowerTriangular(n)
	stair := StairTriangular(n, nb)
	// The stair contains the triangle (plus the green cells of Fig. 5).
	if stair.Size() < tri.Size() {
		t.Fatalf("stair %d < triangle %d", stair.Size(), tri.Size())
	}
	// Expected size: group g (columns g*nb..g*nb+nb-1) keeps n - g*nb
	// elements per column.
	var want int64
	for i := 0; i < n; i++ {
		want += int64(n-i/nb*nb) * 8
	}
	if stair.Size() != want {
		t.Fatalf("stair size = %d, want %d", stair.Size(), want)
	}
	// The first stair group's full-height columns merge into one
	// contiguous block; later groups stay one block per column.
	flat := stair.Blocks()
	if flat[0].Len != int64(nb*n)*8 {
		t.Fatalf("first group block len = %d", flat[0].Len)
	}
	if len(flat) != 1+(n-nb) {
		t.Fatalf("blocks = %d", len(flat))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-dividing nb")
		}
	}()
	StairTriangular(8, 3)
}

func TestTransposeLayout(t *testing.T) {
	n := 3
	d := Transpose(n)
	// Packed element k must come from memory element (k%n)*n + k/n.
	c := datatype.NewConverter(d, 1)
	if c.Total() != int64(n*n*8) {
		t.Fatalf("total = %d", c.Total())
	}
	k := 0
	c.Advance(c.Total(), func(memOff, packOff, l int64) {
		for b := int64(0); b < l; b += 8 {
			e := memOff + b
			row := k / n
			col := k % n
			if want := int64(col*n+row) * 8; e != want {
				t.Fatalf("packed elem %d from mem %d, want %d", k, e, want)
			}
			k++
		}
	})
	if k != n*n {
		t.Fatalf("visited %d elements", k)
	}
}

func TestHaloColumn(t *testing.T) {
	d := HaloColumn(4)
	v, ok := d.Vector(1)
	if !ok || v.Inner != 4 || v.BlockLen != 8 || v.InnerStride != 6*8 {
		t.Fatalf("vector = %+v", v)
	}
}

func TestParticleIndices(t *testing.T) {
	d := ParticleIndices([]int{0, 3, 7}, 5)
	if d.Size() != 3*5*8 {
		t.Fatalf("size = %d", d.Size())
	}
	flat := d.Blocks()
	if len(flat) != 3 || flat[1].Off != 3*5*8 || flat[1].Len != 40 {
		t.Fatalf("flat = %v", flat)
	}
	// Adjacent indices merge.
	m := ParticleIndices([]int{2, 3}, 4)
	if m.NumBlocks() != 1 {
		t.Fatalf("adjacent records not merged: %v", m.Blocks())
	}
}

// TestHaloFaceSelectsPlane packs a padded 3D array through HaloFace
// types and checks each face selects exactly the expected cells: full
// padded extent before the face dimension, interior after it.
func TestHaloFaceSelectsPlane(t *testing.T) {
	padded := []int{4, 5, 6}
	src := make([]byte, 4*5*6*8)
	for i := range src {
		src[i] = byte(i % 251)
	}
	at := func(i, j, k int) int { return ((i*5+j)*6 + k) * 8 }
	for dim := 0; dim < 3; dim++ {
		for _, idx := range []int{0, 1, padded[dim] - 2, padded[dim] - 1} {
			dt := HaloFace(padded, dim, idx)
			var want []byte
			rng := func(d int) (int, int) {
				switch {
				case d == dim:
					return idx, idx + 1
				case d < dim:
					return 0, padded[d]
				default:
					return 1, padded[d] - 1
				}
			}
			i0, i1 := rng(0)
			j0, j1 := rng(1)
			k0, k1 := rng(2)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					for k := k0; k < k1; k++ {
						want = append(want, src[at(i, j, k):at(i, j, k)+8]...)
					}
				}
			}
			got := make([]byte, dt.Size())
			datatype.NewConverter(dt, 1).Pack(got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("dim %d idx %d: packed face differs", dim, idx)
			}
		}
	}
}
