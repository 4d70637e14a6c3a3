package bench_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"gpuddt/internal/bench"
	"gpuddt/internal/conformance"
)

func figureCSV(f *bench.Figure) string {
	var buf bytes.Buffer
	f.PrintCSV(&buf)
	return buf.String()
}

// TestParallelMatchesSerial checks that figures are byte-identical with
// the sweep points fanned out over goroutines: parallelism only changes
// wall-clock, never virtual time or merge order.
func TestParallelMatchesSerial(t *testing.T) {
	sizes := []int{512, 1024}
	if raceDetector {
		sizes = sizes[:1] // the parallel driver is raced all the same
	}
	cases := []struct {
		name string
		run  func() *bench.Figure
	}{
		{"fig6", func() *bench.Figure { return bench.Fig6(sizes) }},
		{"fig9", func() *bench.Figure { return bench.Fig9(sizes) }},
		{"fig10b", func() *bench.Figure { return bench.Fig10(bench.TwoGPU, sizes) }},
		{"fig12", func() *bench.Figure { return bench.Fig12([]int{256}) }},
		{"a3", func() *bench.Figure { return bench.AblationRemoteUnpack([]int{512}) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			serial := figureCSV(c.run())
			for _, par := range []int{2, 8} {
				bench.SetParallelism(par)
				got := figureCSV(c.run())
				bench.SetParallelism(1)
				if got != serial {
					t.Fatalf("parallel=%d output differs from serial\nserial:\n%s\nparallel:\n%s", par, serial, got)
				}
			}
		})
	}
}

// TestGoldenFiguresParallel replays a slice of the golden gate with the
// parallel driver on: the recorded virtual-time traces must still match.
func TestGoldenFiguresParallel(t *testing.T) {
	cases := []struct {
		name string
		run  func() *bench.Figure
	}{
		{"fig1", func() *bench.Figure { return bench.Fig1Solutions([]int{256}) }},
		{"fig7", func() *bench.Figure { return bench.Fig7([]int{512}) }},
		{"fig8", func() *bench.Figure { return bench.Fig8([]int64{1024}, []int64{200, 1024, 4096}) }},
		{"fig10c", func() *bench.Figure { return bench.Fig10(bench.TwoNode, []int{512, 1024}) }},
		{"fig11", func() *bench.Figure { return bench.Fig11([]int{512, 1024}) }},
		{"r1", func() *bench.Figure { return bench.Sec53(512, []int{1, 4, 16}) }},
		{"r2", func() *bench.Figure { return bench.Sec54(512, []float64{0, 0.5, 0.9}) }},
		{"a1", func() *bench.Figure { return bench.AblationUnitSize(512, []int64{256, 1024, 4096}) }},
		{"a2", func() *bench.Figure { return bench.AblationPipeline(512, []int64{256 << 10, 1 << 20}) }},
	}
	bench.SetParallelism(4)
	defer bench.SetParallelism(1)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.name+".json")
			if err := conformance.CheckFigure(path, c.run(), false); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunAllOrderAndNesting runs several runners concurrently, each of
// which pmaps internally — the semaphore's inline fallback must keep the
// nested fan-out deadlock-free — and requires registry output order.
func TestRunAllOrderAndNesting(t *testing.T) {
	var selected []bench.Runner
	for _, r := range bench.Runners() {
		if r.ID == "fig6" || r.ID == "fig9" || r.ID == "ablation-remoteunpack" {
			selected = append(selected, r)
		}
	}
	if len(selected) != 3 {
		t.Fatalf("registry selection found %d runners, want 3", len(selected))
	}
	cfg := bench.SweepConfig{Sizes: []int{512}, TrSizes: []int{256}, BlockCounts: []int64{1024}}
	bench.SetParallelism(2)
	figs := bench.RunAll(selected, cfg)
	bench.SetParallelism(1)
	want := []string{"fig6", "fig9", "ablation-remoteunpack"}
	for i, f := range figs {
		if f.ID != want[i] {
			t.Fatalf("figure %d is %q, want %q", i, f.ID, want[i])
		}
	}
}

func TestParallelismAccessors(t *testing.T) {
	bench.SetParallelism(3)
	if got := bench.Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	bench.SetParallelism(0)
	if got := bench.Parallelism(); got != 1 {
		t.Fatalf("Parallelism() = %d after reset, want 1", got)
	}
}
