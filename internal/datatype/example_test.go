package datatype_test

import (
	"fmt"

	"gpuddt/internal/datatype"
)

// A sub-matrix of a column-major matrix is an MPI vector: count columns
// of blocklen elements, strided by the leading dimension.
func ExampleVector() {
	sub := datatype.Vector(3, 4, 8, datatype.Float64) // 3 cols x 4 rows in an 8-row matrix
	fmt.Println("size:", sub.Size(), "bytes")
	fmt.Println("extent:", sub.Extent(), "bytes")
	fmt.Println("blocks:", sub.NumBlocks())
	v, _ := sub.Vector(1)
	fmt.Printf("vector view: %d blocks of %d bytes every %d bytes\n", v.Inner, v.BlockLen, v.InnerStride)
	// Output:
	// size: 96 bytes
	// extent: 160 bytes
	// blocks: 3
	// vector view: 3 blocks of 32 bytes every 64 bytes
}

// A Converter packs a non-contiguous layout fragment by fragment, which
// is what lets the communication protocols pipeline pack, transfer and
// unpack.
func ExampleConverter() {
	dt := datatype.Indexed([]int{2, 1}, []int{0, 3}, datatype.Float64)
	src := make([]byte, 4*8)
	for i := range src {
		src[i] = byte(i)
	}
	c := datatype.NewConverter(dt, 1)
	out := make([]byte, c.Total())
	// Pack in two fragments of 12 bytes each.
	c.Pack(out[:12], src)
	c.Pack(out[12:], src)
	fmt.Println("total packed:", c.Total(), "bytes; done:", c.Done())
	fmt.Println("first byte of second block:", out[16]) // element 3 starts at byte 24 of src
	// Output:
	// total packed: 24 bytes; done: true
	// first byte of second block: 24
}

// Signatures decide whether differently shaped send and receive types
// may be matched: a vector of doubles matches a contiguous run of the
// same doubles, enabling on-the-fly reshapes.
func ExampleSignaturesMatch() {
	vec := datatype.Vector(4, 2, 5, datatype.Float64)
	contig := datatype.Contiguous(8, datatype.Float64)
	fmt.Println(datatype.SignaturesMatch(vec, 1, contig, 1))
	fmt.Println(datatype.SignaturesMatch(vec, 1, datatype.Contiguous(8, datatype.Int64), 1))
	// Output:
	// true
	// false
}
