package bench

import (
	"testing"
)

// TestScaleQuickSweep runs the CI sweep end to end. Every point is
// payload-verified inside RunScale (hier vs flat byte-identity); here
// we check the sweep shape and that the measurements are sane.
func TestScaleQuickSweep(t *testing.T) {
	sw := QuickScaleSweep()
	pts, err := RunScale(sw)
	if err != nil {
		t.Fatal(err)
	}
	want := len(sw.Colls) * len(sw.Ranks) * len(sw.Oversubs)
	if len(pts) != want {
		t.Fatalf("%d points, want %d", len(pts), want)
	}
	for _, pt := range pts {
		if pt.FlatUs <= 0 || pt.HierUs <= 0 {
			t.Errorf("%s %d ranks: non-positive time (flat %.1f, hier %.1f)", pt.Coll, pt.Ranks, pt.FlatUs, pt.HierUs)
		}
		if pt.BytesPerRank <= 0 {
			t.Errorf("%s %d ranks: no payload", pt.Coll, pt.Ranks)
		}
		if pt.Ranks != pt.Nodes*pt.RanksPerNode {
			t.Errorf("%s: inconsistent shape %d != %d*%d", pt.Coll, pt.Ranks, pt.Nodes, pt.RanksPerNode)
		}
	}
}

// TestScaleAlltoallTarget pins the alltoall at 128 ranks on a 2:1
// oversubscribed fat tree: flat under 700 us, hierarchical under 660 us
// and faster than flat. Both hold only while the exchange posts every
// receive before its first send and sends in step order, and the
// hierarchical leader hands its members their columns in one batch
// (DESIGN decision 29).
func TestScaleAlltoallTarget(t *testing.T) {
	pt, err := measureScale("alltoall", 32, 4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FlatUs > 700 || pt.HierUs > 660 || pt.HierUs >= pt.FlatUs {
		t.Fatalf("alltoall at 128 ranks, 2:1 oversub: flat %.1f us, hier %.1f us; want flat <= 700, hier <= 660, hier < flat",
			pt.FlatUs, pt.HierUs)
	}
}

// TestScaleDeterminism re-measures one point and requires identical
// virtual times: the sweep must be a pure function of its parameters.
func TestScaleDeterminism(t *testing.T) {
	a, err := measureScale("allgather", 4, 4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureScale("allgather", 4, 4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("non-deterministic point:\n  %+v\n  %+v", a, b)
	}
}
