package conformance

import (
	"testing"
)

// vcollConfigs covers every axis the v-variant oracle promises — CPU
// and GPU engines, hierarchical and flat dispatch, eager and rendezvous
// protocols — pairing each hier shape with its forced-flat twin so both
// paths answer to the same reference on identical inputs. A hier shape
// runs the group Alltoallv over permuted ranks, its twin the world one.
func vcollConfigs() []VConfig {
	return []VConfig{
		{Nodes: 2, RPN: 2},
		{Nodes: 2, RPN: 2, Flat: true},
		{Nodes: 2, RPN: 2, OnHost: true, Eager: true},
		{Nodes: 2, RPN: 2, Flat: true, OnHost: true, Eager: true},
		{Nodes: 3, RPN: 2, Eager: true},
		{Nodes: 3, RPN: 2, Flat: true, Eager: true},
		{Nodes: 3, RPN: 2, OnHost: true},
		{Nodes: 3, RPN: 2, Flat: true, OnHost: true},
		{Nodes: 1, RPN: 4}, // single node: flat by construction
	}
}

// TestVCollOracle sweeps seeded irregular cases — zero counts, an empty
// rank, permuted displacements, datatype-tree payloads — through
// Alltoallv and Allgatherv on every configuration and verifies the full
// receive images against the reference walker.
func TestVCollOracle(t *testing.T) {
	seeds := []uint64{3, 17, 42}
	for _, cfg := range vcollConfigs() {
		for _, seed := range seeds {
			vc := GenVCase(seed, cfg.Nodes*cfg.RPN)
			if err := vc.CheckAlltoallv(cfg); err != nil {
				t.Error(err)
			}
			if err := vc.CheckAllgatherv(cfg); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestVCollOracleAllZero pins the degenerate distribution on both
// dispatch paths.
func TestVCollOracleAllZero(t *testing.T) {
	for _, cfg := range []VConfig{{Nodes: 2, RPN: 2}, {Nodes: 2, RPN: 2, Flat: true}} {
		sc := make([][]int, 4)
		for i := range sc {
			sc[i] = make([]int, 4)
		}
		vc := NewVCaseCounts(5, sc)
		for r := range vc.AGCounts {
			vc.AGCounts[r] = 0
		}
		if err := vc.CheckAlltoallv(cfg); err != nil {
			t.Error(err)
		}
		if err := vc.CheckAllgatherv(cfg); err != nil {
			t.Error(err)
		}
	}
}

// FuzzAlltoallvCounts lets the fuzzer pick the send matrix of a 4-rank
// world (one byte per pair, mod 4) and the tree seed, then holds the
// exchange to the reference walker as a group Alltoallv over permuted
// ranks on a two-node world and as the world Alltoallv on a flat one.
func FuzzAlltoallvCounts(f *testing.F) {
	f.Add(uint64(1), []byte{
		1, 0, 2, 3,
		0, 0, 0, 0,
		3, 1, 0, 2,
		2, 2, 1, 0,
	})
	f.Add(uint64(7), make([]byte, 16)) // all-zero: every pair empty
	hot := make([]byte, 16)            // single hot peer: only 2 -> 1 sends
	hot[2*4+1] = 3
	f.Add(uint64(9), hot)
	f.Fuzz(func(t *testing.T, seed uint64, cbytes []byte) {
		const size = 4
		sc := make([][]int, size)
		for i := range sc {
			sc[i] = make([]int, size)
			for j := range sc[i] {
				k := i*size + j
				if k < len(cbytes) {
					sc[i][j] = int(cbytes[k] % (vcollMaxCount + 1))
				}
			}
		}
		vc := NewVCaseCounts(seed%1024, sc)
		for _, cfg := range []VConfig{
			{Nodes: 2, RPN: 2},
			{Nodes: 2, RPN: 2, Flat: true, OnHost: true},
		} {
			if err := vc.CheckAlltoallv(cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
}
