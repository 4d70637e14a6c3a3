package gpuddt_test

// One testing.B benchmark per experiment in DESIGN.md's per-experiment
// index. Each iteration regenerates the figure (or its key slice) on the
// simulated cluster; the reported custom metrics are virtual-time
// results, which are deterministic — the wall-clock ns/op merely
// measures the simulator.
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkFig9 -benchtime=1x

import (
	"strings"
	"testing"

	"gpuddt/internal/baseline"
	"gpuddt/internal/bench"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// benchSizes keeps -bench=. runs tractable while exercising the real
// sweep machinery; cmd/ddtbench runs the full-size sweeps.
var benchSizes = []int{1024, 2048}

func reportSeries(b *testing.B, f *bench.Figure, unit string) {
	b.Helper()
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			continue
		}
		last := s.Points[len(s.Points)-1]
		name := strings.ReplaceAll(s.Name, " ", "_")
		b.ReportMetric(last.Y, name+"_"+unit)
	}
}

func BenchmarkFig1Solutions(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig1Solutions([]int{512})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkFig6PackBandwidth(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig6(benchSizes)
	}
	reportSeries(b, f, "GBps")
}

func BenchmarkFig7PackUnpack(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig7(benchSizes)
	}
	reportSeries(b, f, "ms")
}

func BenchmarkFig8VectorVsMemcpy2D(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig8([]int64{1024}, []int64{200, 1024, 4096})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkFig9PingpongPCIe(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig9([]int{2048})
	}
	reportSeries(b, f, "GBps")
}

func benchFig10(b *testing.B, topo bench.Topology) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig10(topo, []int{1024})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkFig10aSMIntraGPU(b *testing.B) { benchFig10(b, bench.OneGPU) }
func BenchmarkFig10bSMInterGPU(b *testing.B) { benchFig10(b, bench.TwoGPU) }
func BenchmarkFig10cIB(b *testing.B)         { benchFig10(b, bench.TwoNode) }

func BenchmarkFig11VecContig(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig11([]int{1024})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkFig12Transpose(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Fig12([]int{512})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkSec53MinResources(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Sec53(1024, []int{1, 4, 30})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkSec54SharedGPU(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Sec54(1024, []float64{0, 0.5, 0.9})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkAblationUnitSize(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationUnitSize(1024, []int64{256, 1024, 4096})
	}
	reportSeries(b, f, "GBps")
}

func BenchmarkAblationFragSize(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationPipeline(1024, []int64{256 << 10, 1 << 20, 4 << 20})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkAblationRemoteUnpack(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.AblationRemoteUnpack([]int{1024})
	}
	reportSeries(b, f, "ms")
}

func BenchmarkApps(b *testing.B) {
	var f *bench.Figure
	for i := 0; i < b.N; i++ {
		f = bench.Apps()
	}
	reportSeries(b, f, "ms")
}

// BenchmarkPingPongSingle measures one representative transfer end to
// end (the paper's headline configuration: triangular matrix between
// two GPUs) and reports the virtual round-trip and achieved bandwidth.
func BenchmarkPingPongSingle(b *testing.B) {
	var rt sim.Time
	dt := shapes.LowerTriangular(2048)
	for i := 0; i < b.N; i++ {
		rt = bench.PingPong(bench.PingPongSpec{Topo: bench.TwoGPU, Dt0: dt, Count: 1})
	}
	b.ReportMetric(rt.Millis(), "virt_rt_ms")
	b.ReportMetric(sim.GBps(dt.Size(), rt/2), "GBps")
}

// BenchmarkMVAPICHGap reports the headline comparison factor.
func BenchmarkMVAPICHGap(b *testing.B) {
	dt := shapes.LowerTriangular(1024)
	var gap float64
	for i := 0; i < b.N; i++ {
		ours := bench.PingPong(bench.PingPongSpec{Topo: bench.TwoGPU, Dt0: dt, Count: 1})
		mv := bench.PingPong(bench.PingPongSpec{
			Topo: bench.TwoGPU, Dt0: dt, Count: 1, Tuning: &mpi.Tuning{Strategy: &baseline.MVAPICHStrategy{}},
		})
		gap = float64(mv) / float64(ours)
	}
	b.ReportMetric(gap, "speedup_x")
}
