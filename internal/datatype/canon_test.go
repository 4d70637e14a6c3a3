package datatype

import (
	"slices"
	"sync"
	"testing"
)

// TestBornCanonicalEdges pins the normalization of canon.go on the
// shapes where composing the form and flattening could part: merges of
// whole levels, fused levels, a merge at run boundaries only, a third
// level, negative strides and no blocks. Each type's list is written
// out, and its form must be detectCanon's over that list.
func TestBornCanonicalEdges(t *testing.T) {
	pair := Hvector(2, 1, 16, Int64) // blocks at 0 and 16
	cases := []struct {
		name string
		dt   *Datatype
		want []Block
	}{
		{"vector of abutting blocks is one block", Vector(4, 2, 2, Int32), []Block{{0, 32}}},
		{"contiguous of a dense vector merges across elements", Contiguous(3, Vector(2, 1, 1, Float64)), []Block{{0, 48}}},
		{"levels continuing each other fuse", Hvector(3, 1, 32, pair), []Block{{0, 8}, {16, 8}, {32, 8}, {48, 8}, {64, 8}, {80, 8}}},
		{"two levels", Hvector(2, 1, 40, pair), []Block{{0, 8}, {16, 8}, {40, 8}, {56, 8}}},
		{"merge at run boundaries only", Hvector(3, 1, 24, pair), []Block{{0, 8}, {16, 16}, {40, 16}, {64, 8}}},
		{"three levels", Hvector(2, 1, 200, Hvector(2, 1, 40, pair)), []Block{{0, 8}, {16, 8}, {40, 8}, {56, 8}, {200, 8}, {216, 8}, {240, 8}, {256, 8}}},
		{"negative stride", Vector(3, 1, -2, Int64), []Block{{0, 8}, {-16, 8}, {-32, 8}}},
		{"negative stride does not merge backwards", Hvector(3, 1, -8, Int64), []Block{{0, 8}, {-8, 8}, {-16, 8}}},
		{"resized tiles densely", Contiguous(4, Resized(Int32, 0, 4)), []Block{{0, 16}}},
		{"subarray face", Subarray([]int{4, 5}, []int{2, 3}, []int{1, 1}, OrderC, Int64), []Block{{48, 24}, {88, 24}}},
		{"zero count", Contiguous(0, Float64), nil},
		{"zero block length", Vector(3, 0, 2, Float64), nil},
		{"zero subsize", Subarray([]int{4, 5}, []int{0, 3}, []int{1, 1}, OrderC, Int64), nil},
	}
	for _, c := range cases {
		if got := c.dt.Blocks(); !slices.Equal(got, c.want) {
			t.Errorf("%s: blocks %v, want %v", c.name, got, c.want)
		}
		if c.dt.NumBlocks() != len(c.want) {
			t.Errorf("%s: NumBlocks %d, want %d", c.name, c.dt.NumBlocks(), len(c.want))
		}
		got, want := c.dt.Plan().Canonical(), detectCanon(c.want)
		if (got == nil) != (want == nil) || got != nil && *got != *want {
			t.Errorf("%s: canonical form %+v, detected %+v", c.name, got, want)
		}
	}
}

// TestBlocksConcurrent builds a canonical type's list from many
// goroutines at once: one list, built once; run with -race.
func TestBlocksConcurrent(t *testing.T) {
	dt := transposeLike(16)
	lists := make([][]Block, 8)
	var wg sync.WaitGroup
	for i := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i] = dt.Blocks()
		}()
	}
	wg.Wait()
	for _, l := range lists {
		if len(l) != 256 || &l[0] != &lists[0][0] {
			t.Fatalf("Blocks returned %d blocks at %p, want the one list of 256 at %p", len(l), &l[0], &lists[0][0])
		}
	}
}
