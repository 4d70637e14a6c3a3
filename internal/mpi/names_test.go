package mpi_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/link_names.txt from this build")

// linkNames returns the name of every link of a world built from spec,
// in creation order, after a barrier and an alltoall.
func linkNames(spec cluster.Spec) []string {
	w := mpi.NewWorld(spec.Config())
	w.Run(func(m *mpi.Rank) {
		m.Barrier()
		dt := datatype.Contiguous(16, datatype.Float64)
		send := m.Malloc(int64(m.Size()) * dt.Size())
		recv := m.Malloc(int64(m.Size()) * dt.Size())
		m.Alltoall(send, dt, 1, recv, dt, 1)
	})
	defer w.Close()
	var names []string
	for _, l := range w.Engine().Links() {
		names = append(names, l.Name())
	}
	return names
}

// TestLinkNamesGolden pins every link name of coll_real's world shape
// (a 64-rank 2:1 fat tree, leaf up- and downlinks included) and of a
// two-node pair. The benchmark's layer pass classifies links by these
// names, so a rename silently zeroes a metric; here it fails instead.
func TestLinkNamesGolden(t *testing.T) {
	const golden = "testdata/link_names.txt"
	var b strings.Builder
	for _, tc := range []struct {
		name string
		spec cluster.Spec
	}{
		{"Scale(16,4,4,2)", cluster.Scale(16, 4, 4, 2)},
		{"TwoNode", cluster.TwoNode()},
	} {
		b.WriteString("# " + tc.name + "\n")
		for _, n := range linkNames(tc.spec) {
			b.WriteString(n + "\n")
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<end of file>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("link %d: got %q, want %q", i+1, gl[i], w)
		}
	}
	t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
}
