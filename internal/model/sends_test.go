package model_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/model"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// TestModelSendsMatchRealStack runs every arm of internal/mpi's
// testdata/coll_sends.txt — alltoall and allgather, flat and
// hierarchical, at 32 and 64 ranks, 4 per node on a 2:1 fat tree — as a
// modelled collective and holds each rank's sends (peer and bytes, in
// order) to the digests the real stack's TestCollSendsGolden pins there:
// both executors walk the same mpi.Sched values, so they send the same
// messages in the same order.
func TestModelSendsMatchRealStack(t *testing.T) {
	raw, err := os.ReadFile("../mpi/testdata/coll_sends.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want := strings.Fields(row)
		coll, flat := want[0], want[1] == "flat"
		ranks, err := strconv.Atoi(want[2])
		if err != nil {
			t.Fatal(err)
		}
		logs := make([]strings.Builder, ranks)
		_, err = model.RunRecording(model.Options{
			Spec: cluster.ScaleModelled(ranks/4, 4, 4, 2, 1), Coll: coll, Flat: flat,
			Dt: shapes.SubMatrix(16, 8, 12), Count: 1,
		}, func(from, to sim.ActorID, bytes int64) { fmt.Fprintf(&logs[from], "%d:%d ", to, bytes) })
		if err != nil {
			t.Fatalf("%s: %v", strings.Join(want[:3], " "), err)
		}
		for r := range logs {
			sum := sha256.Sum256([]byte(logs[r].String()))
			if got := fmt.Sprintf("%x", sum[:4]); got != want[3+r] {
				t.Errorf("%s: rank %d's modelled sends differ from the real stack's: %s", strings.Join(want[:3], " "), r, logs[r].String())
				break
			}
		}
	}
}
