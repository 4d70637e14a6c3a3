package mpi_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

// sendsGolden holds, for alltoall and allgather, flat and hierarchical,
// at 32 and 64 ranks (4 per node, 2:1 fat tree, blocked), a digest of
// each rank's sends in posting order: the peer and the packed bytes of
// every one. internal/model's TestModelSendsMatchRealStack holds the
// modelled runs to the same file, so the two executors of one schedule
// send the same messages in the same order; only this test rewrites it
// (-update).
const sendsGolden = "testdata/coll_sends.txt"

// sendArms are the rows of sendsGolden: collective, schedule, nodes.
var sendArms = []struct {
	coll  string
	flat  bool
	nodes int
}{
	{"alltoall", true, 8}, {"alltoall", false, 8}, {"allgather", true, 8}, {"allgather", false, 8},
	{"alltoall", true, 16}, {"alltoall", false, 16}, {"allgather", true, 16}, {"allgather", false, 16},
}

// realSends runs one arm on a real world and returns its golden line.
func realSends(coll string, flat bool, nodes int) string {
	cfg := cluster.Scale(nodes, 4, 4, 2).Config()
	if flat {
		cfg.Tuning = &mpi.Tuning{Collectives: mpi.CollFlat}
	}
	w := mpi.NewWorld(cfg)
	defer w.Close()
	logs := make([]strings.Builder, w.Size())
	mpi.RecordSends(w, func(from, to int, bytes int64) { fmt.Fprintf(&logs[from], "%d:%d ", to, bytes) })
	block := shapes.SubMatrix(16, 8, 12)
	w.Run(func(m *mpi.Rank) {
		n := m.Size()
		buf := m.Malloc(block.Span(n))
		if coll == "allgather" {
			m.Allgather(buf, block, 1)
			return
		}
		m.Alltoall(buf, block, 1, m.Malloc(block.Span(n)), block, 1)
	})
	return sendsLine(coll, flat, logs)
}

// sendsLine is one row of sendsGolden: the arm, then eight hex digits of
// the sha256 of each rank's sends.
func sendsLine(coll string, flat bool, logs []strings.Builder) string {
	sched := "hier"
	if flat {
		sched = "flat"
	}
	line := fmt.Sprintf("%s %s %d", coll, sched, len(logs))
	for i := range logs {
		sum := sha256.Sum256([]byte(logs[i].String()))
		line += fmt.Sprintf(" %x", sum[:4])
	}
	return line
}

// TestCollSendsGolden holds the real stack's collective sends to
// sendsGolden, naming the first rank whose sends differ.
func TestCollSendsGolden(t *testing.T) {
	var got []string
	for _, a := range sendArms {
		got = append(got, realSends(a.coll, a.flat, a.nodes))
	}
	if *update {
		if err := os.WriteFile(sendsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sendsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d rows, want %d", sendsGolden, len(want), len(got))
	}
	for i := range got {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		for r := 3; r < len(g) || r < len(w); r++ {
			if r >= len(g) || r >= len(w) || g[r] != w[r] {
				t.Errorf("%s: rank %d's sends differ from %s", strings.Join(w[:3], " "), r-3, sendsGolden)
				break
			}
		}
	}
}
