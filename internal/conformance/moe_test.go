package conformance

import (
	"testing"

	"gpuddt/internal/workload"
)

// FuzzMoECounts replays the workload generator's expert-routing count
// matrices — the skewed shapes real MoE layers emit, with single-hot
// experts absorbing most tokens and whole ranks silent for a step —
// through the v-variant oracle: as the group Alltoallv over permuted
// ranks that the workload makes, on a two-node world, and as the world
// Alltoallv on a flat one. Raw token counts are clamped per pair to the
// oracle's element bound so payloads stay small while the matrix *shape*
// (zero rows, hot columns) is preserved exactly.
func FuzzMoECounts(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0))
	f.Add(uint64(3), uint8(8), uint8(0))  // three of four ranks route nothing
	f.Add(uint64(26), uint8(8), uint8(1)) // one expert absorbs 21/26 tokens
	f.Fuzz(func(t *testing.T, seed uint64, mean, step uint8) {
		const size = 4
		counts := workload.MoECounts(seed, size, int(mean%32), int(step))
		sc := make([][]int, size)
		for i := range sc {
			sc[i] = make([]int, size)
			for j := range sc[i] {
				c := counts[i][j]
				if c > vcollMaxCount {
					// Keep hot cells hot relative to the rest without
					// blowing the payload bound.
					c = vcollMaxCount
				}
				sc[i][j] = c
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
