package model

import (
	"fmt"
	"testing"

	"gpuddt/internal/cluster"
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

// TestModelNumbersPinned holds every count a run reports to literals at
// 1 024 ranks (256 nodes x 4, oversubscription 2, 16 sampled) and 1, 2,
// 4 and 8 shards. The identity tests compare one shard count with
// another and would all move together; these cannot. The allgather
// rows' times, events, messages, signature checks and heap peaks are
// those the model had before it walked internal/mpi's schedules: only
// the alltoall's exchange changed, from lockstep rounds to receives
// posted ahead.
func TestModelNumbersPinned(t *testing.T) {
	for _, row := range []struct {
		coll                 string
		flat                 bool
		time                 sim.Time
		events, msgs, sigs   int64
		heapPeak, stateBytes [4]int64 // at 1, 2, 4, 8 shards
		digest               string
	}{
		{"alltoall", false, 3072954916, 131456, 66816, 4128,
			[4]int64{1023, 511, 255, 127}, [4]int64{146376, 117704, 103368, 96200}, "fc7c7506dd9275aa"},
		{"alltoall", true, 5943757548, 2065024, 1047552, 16368,
			[4]int64{1536, 768, 384, 192}, [4]int64{166912, 123904, 102400, 91648}, "fc7c7506dd9275aa"},
		{"allgather", false, 3713813064, 76000, 66816, 4128,
			[4]int64{1023, 511, 255, 127}, [4]int64{138184, 109512, 95176, 88008}, "ed02f84240796db7"},
		{"allgather", true, 11764514444, 1081312, 1047552, 16368,
			[4]int64{1024, 512, 256, 128}, [4]int64{138240, 109568, 95232, 88064}, "ed02f84240796db7"},
	} {
		for i, shards := range []int{1, 2, 4, 8} {
			res := mustRun(t, Options{
				Spec: cluster.ScaleModelled(256, 4, 4, 2, shards), Coll: row.coll, Flat: row.flat,
				Dt: shapes.SubMatrix(16, 8, 12), Count: 1, SampleRanks: 16,
			})
			got := fmt.Sprint(res.Shards, int64(res.Time), res.Events, res.Messages, res.SigChecks,
				res.HeapPeak, res.StateBytes, fmt.Sprintf("%x", res.Digest[:8]))
			want := fmt.Sprint(shards, int64(row.time), row.events, row.msgs, row.sigs,
				row.heapPeak[i], row.stateBytes[i], row.digest)
			if got != want {
				t.Errorf("%s flat=%v: shards, time, events, messages, sigchecks, heap peak, state bytes, digest\n got %s\nwant %s",
					row.coll, row.flat, got, want)
			}
		}
	}
}

// fourRanks builds a four-node, one-rank-per-node world of coll for a
// test that runs rank 0 alone on an engine of its own, with one span per
// finish, every rank sampled and its sends recorded in sent.
func fourRanks(t *testing.T, coll string) (w *world, se *sim.ShardedEngine, rec *sim.Recorder, sent *[]sim.ActorID) {
	t.Helper()
	o := testOptions(coll, true, 1)
	o.Spec = cluster.Scale(4, 1, 1, 2)
	o.RecordSpans = true
	w, err := build(o)
	if err != nil {
		t.Fatal(err)
	}
	sent = new([]sim.ActorID)
	w.sent = func(from, to sim.ActorID, _ int64) {
		if from == 0 {
			*sent = append(*sent, to)
		}
	}
	// The world's own engine has every rank's start queued; this one
	// runs rank 0 alone.
	se = sim.NewShardedEngine(1, 0)
	rec = se.Record()
	se.AddActor(0, &w.ranks[0])
	return w, se, rec, sent
}

// checkFinished fails unless rank 0 finished exactly once with every
// block marked once.
func checkFinished(t *testing.T, what string, w *world, rec *sim.Recorder) {
	t.Helper()
	if !w.ranks[0].done || rec.SpanCount() != 1 {
		t.Errorf("%s: done=%v after %d finishes", what, w.ranks[0].done, rec.SpanCount())
	}
	if int(w.covered[0]) != w.p {
		t.Errorf("%s: %d of %d blocks marked", what, w.covered[0], w.p)
	}
}

// blockFeed lands rank 0's exchange blocks as their senders would: the
// event's Round names the peer whose block lands.
type blockFeed struct{ w *world }

func (f blockFeed) HandleEvent(sc *sim.ShardCtx, ev sim.Event) {
	w, from := f.w, ev.Round
	w.land(sc, sim.Event{To: 0, Kind: 1, From: from, A: w.b, Sig: w.msgSig(&w.ph[0], from, 0, 0)}, sc.Now())
}

// TestExchangeBlocksLandOutOfOrder hands rank 0 of a four-rank flat
// alltoall its three blocks in the order 3, 1, 2 — once after its start
// and once before it, as a leader sees a neighbour quicker than its own
// members. Either way it sends steps 1, 2 and 3 in that order, marks
// every block once and finishes exactly once.
func TestExchangeBlocksLandOutOfOrder(t *testing.T) {
	for _, startAt := range []sim.Time{0, 4 * sim.Microsecond} {
		w, se, rec, sent := fourRanks(t, "alltoall")
		se.AddActor(0, blockFeed{w})
		se.Post(startAt, sim.Event{To: 0})
		for i, from := range []sim.ActorID{3, 1, 2} {
			se.Post(sim.Time(i+1)*sim.Microsecond, sim.Event{To: 1, Round: from})
		}
		se.Run()
		what := fmt.Sprintf("start at %v", startAt)
		if got := fmt.Sprint(*sent); got != "[1 2 3]" {
			t.Errorf("%s: rank 0 sent to %s, want [1 2 3]", what, got)
		}
		checkFinished(t, what, w, rec)
	}
}

// blockLog stands in for rank 0's right neighbour and records the block
// of every ring message it gets.
type blockLog struct{ blocks []int32 }

func (l *blockLog) HandleEvent(sc *sim.ShardCtx, ev sim.Event) { l.blocks = append(l.blocks, ev.Round) }

// TestRingStepsLandEarly: rank 0 of a four-rank ring allgather gets its
// left neighbour's steps 0, 1 and 2 — all before its own start, so steps
// 1 and 2 land before step 0 completes, or in step with it. Either way
// it forwards blocks 0, 3 and 2 in that order, marks every block once
// and finishes exactly once.
func TestRingStepsLandEarly(t *testing.T) {
	for _, startAt := range []sim.Time{0, 4 * sim.Microsecond} {
		w, se, rec, sent := fourRanks(t, "allgather")
		var right blockLog
		se.AddActor(0, &right)
		for i := 0; i < 3; i++ {
			block := int32(3 - i) // step i brings block me-i-1
			se.Post(sim.Time(i+1)*sim.Microsecond, sim.Event{
				To: 0, Kind: 1, From: 3, Round: block, A: w.b, Sig: w.msgSig(&w.ph[0], 3, 0, block),
			})
		}
		se.Post(startAt, sim.Event{To: 0})
		se.Run()
		what := fmt.Sprintf("start at %v", startAt)
		if got := fmt.Sprint(right.blocks); got != "[0 3 2]" || fmt.Sprint(*sent) != "[1 1 1]" {
			t.Errorf("%s: rank 0 sent blocks %s to %v, want [0 3 2] to rank 1", what, got, *sent)
		}
		checkFinished(t, what, w, rec)
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
// state, cover bitsets; the event heap comes off the table shelf) grows
// with the ranks: one cover bitset per added rank. Every rank is
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
