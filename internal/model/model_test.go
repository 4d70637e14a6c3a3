package model

import (
	"fmt"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
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

// TestModelDeterminism: for every collective and schedule, virtual
// times and digests are byte-identical to the one-shard run at every
// shard count.
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

// TestModelNumbersPinned holds every count a run reports to literals
// captured before the shards were drained in turn, at 1 024 ranks
// (256 nodes x 4, oversubscription 2, 16 sampled) and 1, 2, 4 and 8
// shards. The identity tests compare one shard count with another and
// would all move together; these cannot.
func TestModelNumbersPinned(t *testing.T) {
	for _, row := range []struct {
		coll                 string
		flat                 bool
		time                 sim.Time
		events, msgs, sigs   int64
		heapPeak, stateBytes [4]int64 // at 1, 2, 4, 8 shards
		digest               string
	}{
		{"alltoall", false, 6353670250, 131328, 66816, 4128,
			[4]int64{1023, 511, 255, 127}, [4]int64{175048, 146376, 132040, 124872}, "fc7c7506dd9275aa"},
		{"alltoall", true, 14155428000, 2064384, 1047552, 16368,
			[4]int64{1024, 512, 256, 128}, [4]int64{166912, 138240, 123904, 116736}, "fc7c7506dd9275aa"},
		{"allgather", false, 3713813064, 76000, 66816, 4128,
			[4]int64{1023, 511, 255, 127}, [4]int64{166856, 138184, 123848, 116680}, "ed02f84240796db7"},
		{"allgather", true, 11764514444, 1081312, 1047552, 16368,
			[4]int64{1024, 512, 256, 128}, [4]int64{166912, 138240, 123904, 116736}, "ed02f84240796db7"},
	} {
		for i, shards := range []int{1, 2, 4, 8} {
			res := mustRun(t, Options{
				Spec: cluster.ScaleModelled(256, 4, 4, 2, shards), Coll: row.coll, Flat: row.flat,
				Dt: shapes.SubMatrix(16, 8, 12), Count: 1, SampleRanks: 16,
			})
			got := fmt.Sprint(res.Shards, int64(res.Time), res.Events, res.Messages, res.SigChecks, res.Faults,
				res.HeapPeak, res.StateBytes, fmt.Sprintf("%x", res.Digest[:8]))
			want := fmt.Sprint(shards, int64(row.time), row.events, row.msgs, row.sigs, 0,
				row.heapPeak[i], row.stateBytes[i], row.digest)
			if got != want {
				t.Errorf("%s flat=%v: shards, time, events, messages, sigchecks, faults, heap peak, state bytes, digest\n got %s\nwant %s",
					row.coll, row.flat, got, want)
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

// TestModelChaosAllArms: retries reorder arrivals — a later round
// overtakes an earlier one, a neighbour's first slab reaches a leader
// that is still collecting its own members' buffers — and every
// schedule must absorb that: complete, with the clean run's content,
// identically on every shard count. Two and three nodes are the worlds
// where a leader has one or two rounds and nothing arrives afterwards
// to rescue a round parked too early; they fit on one leaf, so only the
// 64-node world has shards to compare. It verifies 16 sampled ranks,
// which keeps the 576 runs affordable under -race.
func TestModelChaosAllArms(t *testing.T) {
	for _, coll := range []string{"alltoall", "allgather"} {
		for _, flat := range []bool{false, true} {
			for _, nodes := range []int{2, 3, 64} {
				o := testOptions(coll, flat, 1)
				o.Spec = cluster.Scale(nodes, 1, 2, 2)
				o.SampleRanks = 16
				clean := mustRun(t, o)
				for _, rate := range []float64{0.05, 0.3} {
					for seed := uint64(1); seed <= 8; seed++ {
						o.ChaosRate, o.ChaosSeed, o.Shards = rate, seed, 1
						what := fmt.Sprintf("%s flat=%v nodes=%d rate=%v seed=%d", coll, flat, nodes, rate, seed)
						ref, err := Run(o)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if ref.Digest != clean.Digest {
							t.Fatalf("%s: chaos perturbed content", what)
						}
						for _, shards := range []int{2, 4} {
							o.Shards = shards
							got, err := Run(o)
							if err != nil {
								t.Fatalf("%s shards=%d: %v", what, shards, err)
							}
							if got.Time != ref.Time || got.Digest != ref.Digest || got.Events != ref.Events || got.Faults != ref.Faults {
								t.Fatalf("%s shards=%d: time %v, %d events, %d faults; serial %v, %d, %d",
									what, shards, got.Time, got.Events, got.Faults, ref.Time, ref.Events, ref.Faults)
							}
						}
					}
				}
			}
		}
	}
}

// sendLog stands in for the peers of the rank under test and records
// the round of every message that rank sends, in arrival order. The
// peers sit on one leaf and send nothing, so the sender's NIC is the
// only queue and arrival order is send order.
type sendLog struct{ rounds []int32 }

func (l *sendLog) HandleEvent(sc *sim.ShardCtx, ev sim.Event) { l.rounds = append(l.rounds, ev.Round) }

// TestRoundsArriveOutOfOrder hands rank 0 of a four-rank flat alltoall
// its three rounds in the order 3, 1, 2 — once after its start event
// and once before it, which is what a leader sees when a neighbour is
// quicker than its own members. Either way it must send rounds 1, 2, 3
// in that order and finish exactly once.
func TestRoundsArriveOutOfOrder(t *testing.T) {
	for _, startAt := range []sim.Time{0, 4 * sim.Microsecond} {
		o := testOptions("alltoall", true, 1)
		o.Spec = cluster.Scale(4, 1, 1, 2)
		o.RecordSpans = true // one span per finish
		w, err := build(o)
		if err != nil {
			t.Fatal(err)
		}
		// The world's own engine has every rank's start event queued;
		// this one runs rank 0 alone against the log.
		se := sim.NewShardedEngine(1, 0)
		rec := se.Record()
		var peers sendLog
		se.AddActor(0, &w.ranks[0])
		for r := 1; r < w.p; r++ {
			se.AddActor(0, &peers)
		}
		se.Post(startAt, sim.Event{To: 0, Kind: kStart})
		for i, round := range []int32{3, 1, 2} {
			_, from := mpi.PairwisePeers(w.p, 0, int(round))
			se.Post(sim.Time(i+1)*sim.Microsecond, sim.Event{
				To: 0, Kind: kA2A, From: sim.ActorID(from), Round: round, A: w.b,
				Sig: w.msgSig(kA2A, sim.ActorID(from), 0, round),
			})
		}
		se.Run()
		if got := fmt.Sprint(peers.rounds); got != "[1 2 3]" {
			t.Errorf("start at %v: rank 0 sent rounds %s, want [1 2 3]", startAt, got)
		}
		if a := &w.ranks[0]; !a.done || rec.SpanCount() != 1 || len(a.pend) != 0 {
			t.Errorf("start at %v: done=%v after %d finishes, %d rounds still pending", startAt, a.done, rec.SpanCount(), len(a.pend))
		}
		if int(w.covered[0]) != w.p {
			t.Errorf("start at %v: %d of %d blocks marked", startAt, w.covered[0], w.p)
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

// TestModelSpans: RecordSpans yields a valid recording with one
// completion span per rank, each on the rank's own track, and leaves
// the Result otherwise as it is without.
func TestModelSpans(t *testing.T) {
	o := testOptions("allgather", false, 4)
	plain := mustRun(t, o)
	o.RecordSpans = true
	res := mustRun(t, o)
	if plain.Rec != nil || res.Rec == nil {
		t.Fatalf("Rec = %v without RecordSpans, %v with", plain.Rec, res.Rec)
	}
	if err := res.Rec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n := len(res.Rec.Tracks()); n != o.Spec.Size() || res.Rec.SpanCount() != n {
		t.Fatalf("%d spans on %d tracks, want one each for %d ranks", res.Rec.SpanCount(), n, o.Spec.Size())
	}
	names := map[string]bool{}
	for _, tk := range res.Rec.Tracks() {
		names[tk.Name] = true
		if sp := tk.Spans[0]; sp.Name != "allgather" || sp.End <= 0 || sp.End > res.Time {
			t.Fatalf("track %q: span %+v, want an allgather ending in (0, %v]", tk.Name, sp, res.Time)
		}
	}
	for r := 0; r < o.Spec.Size(); r++ {
		if !names[fmt.Sprintf("rank%d", r)] {
			t.Fatalf("no track rank%d", r)
		}
	}
	res.Rec = nil
	if fmt.Sprint(res) != fmt.Sprint(plain) {
		t.Fatalf("recording moved the result:\n%+v\n%+v", res, plain)
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
// state, cover bitsets, the event heap's doublings) grows with the
// ranks: one cover bitset per added rank, and no pending-round set,
// because a clean ring delivers every round in order. Every rank is
// sampled, so every message is signed and verified.
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
	if perRank := (big.allocs - small.allocs) / (big.ranks - small.ranks); perRank > 2 {
		t.Errorf("%.1f allocations per added rank, want its cover bitset and at most one more", perRank)
	}
	if big.allocs > big.msgs/16 {
		t.Errorf("%v allocations for %v messages: allocations scale with the message count", big.allocs, big.msgs)
	}
}
