package model

import (
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/shapes"
)

// testOptions is a 128-rank world on 8 fat-tree leaves (64 nodes x 2
// ranks), big enough that every schedule phase and both leader/member
// roles occur, small enough for -race.
func testOptions(coll string, flat bool, shards int) Options {
	return Options{
		Spec:   cluster.Scale(64, 1, 2, 2),
		Coll:   coll,
		Flat:   flat,
		Shards: shards,
		Dt:     shapes.SubMatrix(16, 8, 12),
		Count:  2,
	}
}

func mustRun(t *testing.T, o Options) Result {
	t.Helper()
	res, err := Run(o)
	if err != nil {
		t.Fatalf("model.Run(%s flat=%v shards=%d): %v", o.Coll, o.Flat, o.Shards, err)
	}
	return res
}

// TestModelDeterminism is the tentpole gate: for every collective and
// schedule, the sharded engine must produce byte-identical virtual
// times and digests to the serial (Shards=1) engine, for every shard
// count.
func TestModelDeterminism(t *testing.T) {
	for _, coll := range []string{"alltoall", "allgather"} {
		for _, flat := range []bool{true, false} {
			ref := mustRun(t, testOptions(coll, flat, 1))
			if ref.Shards != 1 {
				t.Fatalf("reference run used %d shards", ref.Shards)
			}
			if ref.Messages == 0 || ref.Events == 0 {
				t.Fatalf("%s flat=%v: empty run (%d msgs, %d events)", coll, flat, ref.Messages, ref.Events)
			}
			for _, shards := range []int{2, 4, 8} {
				got := mustRun(t, testOptions(coll, flat, shards))
				if got.Shards != shards {
					t.Fatalf("%s flat=%v: wanted %d shards, engine used %d", coll, flat, shards, got.Shards)
				}
				if got.Time != ref.Time {
					t.Errorf("%s flat=%v shards=%d: time %v != serial %v", coll, flat, shards, got.Time, ref.Time)
				}
				if got.Digest != ref.Digest {
					t.Errorf("%s flat=%v shards=%d: digest diverged from serial", coll, flat, shards)
				}
				if got.Messages != ref.Messages || got.Events != ref.Events {
					t.Errorf("%s flat=%v shards=%d: %d msgs/%d events != serial %d/%d",
						coll, flat, shards, got.Messages, got.Events, ref.Messages, ref.Events)
				}
			}
		}
	}
}

// TestModelChaosDeterminism: deterministic fault injection perturbs
// timing identically on every shard count, and never content.
func TestModelChaosDeterminism(t *testing.T) {
	clean := mustRun(t, testOptions("alltoall", true, 1))
	o := testOptions("alltoall", true, 1)
	o.ChaosRate = 0.05
	o.ChaosSeed = 17
	ref := mustRun(t, o)
	if ref.Faults == 0 {
		t.Fatal("chaos run injected no faults")
	}
	if ref.Time <= clean.Time {
		t.Fatalf("chaos run (%v) not slower than clean run (%v)", ref.Time, clean.Time)
	}
	if ref.Digest != clean.Digest {
		t.Fatal("chaos perturbed content, not just timing")
	}
	for _, shards := range []int{2, 8} {
		o.Shards = shards
		got := mustRun(t, o)
		if got.Time != ref.Time || got.Digest != ref.Digest || got.Faults != ref.Faults {
			t.Fatalf("chaos world diverged at %d shards: time %v vs %v, faults %d vs %d",
				shards, got.Time, ref.Time, got.Faults, ref.Faults)
		}
	}
}

// TestModelHierFlatSameImage: the hierarchical and flat schedules are
// different routes to the same result — full-sample digests must match.
func TestModelHierFlatSameImage(t *testing.T) {
	for _, coll := range []string{"alltoall", "allgather"} {
		flat := mustRun(t, testOptions(coll, true, 4))
		hier := mustRun(t, testOptions(coll, false, 4))
		if flat.Digest != hier.Digest {
			t.Errorf("%s: flat and hier digests differ", coll)
		}
		if hier.Time >= flat.Time {
			// Not a correctness property, but at these shapes the
			// leader schedules exist to win; a regression here means
			// the model lost its message-aggregation structure.
			t.Errorf("%s: hier (%v) not faster than flat (%v)", coll, hier.Time, flat.Time)
		}
	}
}

// TestModelSampling: a sampled run must verify the sampled subset and
// be deterministic, and sampling must not change virtual time.
func TestModelSampling(t *testing.T) {
	full := mustRun(t, testOptions("alltoall", false, 4))
	o := testOptions("alltoall", false, 4)
	o.SampleRanks = 16
	sub := mustRun(t, o)
	if len(sub.Sampled) != 16 {
		t.Fatalf("sampled %d ranks, want 16", len(sub.Sampled))
	}
	if sub.Time != full.Time {
		t.Fatalf("sampling changed virtual time: %v vs %v", sub.Time, full.Time)
	}
	if sub.Digest == full.Digest {
		t.Fatal("16-rank digest cannot equal 128-rank digest")
	}
	if sub.SigChecks == 0 || sub.SigChecks >= full.SigChecks {
		t.Fatalf("sampled run verified %d signatures, full run %d", sub.SigChecks, full.SigChecks)
	}
	again := mustRun(t, o)
	if again.Digest != sub.Digest {
		t.Fatal("sampled digest not reproducible")
	}
}

// TestModelSpans: RecordSpans yields one completion span per rank on
// the merged lock-free log.
func TestModelSpans(t *testing.T) {
	o := testOptions("allgather", false, 4)
	o.RecordSpans = true
	res := mustRun(t, o)
	if len(res.Spans) != o.Spec.Size() {
		t.Fatalf("%d spans, want %d", len(res.Spans), o.Spec.Size())
	}
	for _, sp := range res.Spans {
		if sp.End <= 0 || sp.End > res.Time {
			t.Fatalf("span end %v outside (0, %v]", sp.End, res.Time)
		}
	}
}

// TestModelStateBytes: the flyweight claim in numbers — per-rank
// structural state must stay in the low-KB range.
func TestModelStateBytes(t *testing.T) {
	res := mustRun(t, testOptions("alltoall", false, 4))
	per := res.MemPerRank(128)
	if per <= 0 || per > 64<<10 {
		t.Fatalf("per-rank state %d bytes, want (0, 64KiB]", per)
	}
}

// TestModelOptionErrors: unusable Options are errors, not panics.
func TestModelOptionErrors(t *testing.T) {
	good := testOptions("alltoall", true, 1)
	bad := good
	bad.Coll = "reduce"
	if _, err := Run(bad); err == nil {
		t.Error("unknown collective accepted")
	}
	bad = good
	bad.Dt = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil datatype accepted")
	}
	bad = good
	bad.Spec = cluster.Spec{Nodes: 4, GPUsPerNode: 1}
	if _, err := Run(bad); err == nil {
		t.Error("flat-fabric spec accepted")
	}
}

// TestModelRunAllocsPerMessage: a modelled message allocates nothing —
// not when it is sent, signed, verified or digested. Flat allgather
// sends p*(p-1) messages, so from 64 to 256 ranks the message count
// grows 16-fold while everything a world legitimately allocates (rank
// state, cover bitsets, the pending-round sets, the event heap's
// doublings) grows with the ranks. Every rank is sampled, so every
// message is signed and verified.
func TestModelRunAllocsPerMessage(t *testing.T) {
	type point struct{ allocs, ranks, msgs float64 }
	var pts []point
	for _, nodes := range []int{32, 128} {
		o := testOptions("allgather", true, 1)
		o.Spec = cluster.Scale(nodes, 1, 2, 2)
		o.Count = 1
		var res Result
		allocs := testing.AllocsPerRun(1, func() { res = mustRun(t, o) })
		if res.SigChecks != res.Messages {
			t.Fatalf("%d ranks: %d of %d messages verified", o.Spec.Size(), res.SigChecks, res.Messages)
		}
		pts = append(pts, point{allocs, float64(o.Spec.Size()), float64(res.Messages)})
	}
	small, big := pts[0], pts[1]
	t.Logf("allocations: %v at %v ranks (%v msgs), %v at %v ranks (%v msgs)",
		small.allocs, small.ranks, small.msgs, big.allocs, big.ranks, big.msgs)
	if perRank := (big.allocs - small.allocs) / (big.ranks - small.ranks); perRank > 8 {
		t.Errorf("%.1f allocations per added rank, want a small constant", perRank)
	}
	if big.allocs > big.msgs/16 {
		t.Errorf("%v allocations for %v messages: allocations scale with the message count", big.allocs, big.msgs)
	}
}
