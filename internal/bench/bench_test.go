package bench

import (
	"fmt"
	"strings"
	"testing"

	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

func TestFigurePrint(t *testing.T) {
	f := &Figure{ID: "x", Title: "demo", XLabel: "N", YLabel: "ms"}
	a := f.NewSeries("a")
	a.Add(1, 2.5)
	a.Add(2, 5)
	b := f.NewSeries("b")
	b.Add(2, 7)
	var sb strings.Builder
	f.Print(&sb)
	out := sb.String()
	for _, want := range []string{"# x — demo", "a", "b", "2.5000", "7.0000", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSweep pins the grid contract the figure runners rely on: one
// series per cell in cell order, one point per x in x order, and — with
// the serial pmap — every cell of one x evaluated before the next x.
func TestSweep(t *testing.T) {
	var order []string
	mk := func(name string, scale float64) cell[int] {
		return cell[int]{name, func(x int) float64 {
			order = append(order, fmt.Sprintf("%s@%d", name, x))
			return scale * float64(x)
		}}
	}
	f := sweep(&Figure{ID: "grid"}, []int{7, 3}, mk("a", 1), mk("b", 10), mk("c", 100))
	if got, want := strings.Join(order, " "), "a@7 b@7 c@7 a@3 b@3 c@3"; got != want {
		t.Errorf("evaluation order %q, want x-major %q", got, want)
	}
	var got []string
	for _, s := range f.Series {
		got = append(got, fmt.Sprintf("%s%v", s.Name, s.Points))
	}
	want := "a[{7 7} {3 3}] b[{7 70} {3 30}] c[{7 700} {3 300}]"
	if strings.Join(got, " ") != want {
		t.Errorf("series %v, want %s", got, want)
	}
}

func TestFig6Shape(t *testing.T) {
	f := Fig6([]int{2048})
	get := func(name string) *Series {
		for _, s := range f.Series {
			if s.Name == name {
				return s
			}
		}
		t.Fatalf("missing series %s", name)
		return nil
	}
	v, tri, stair, c := get("V"), get("T"), get("T-stair"), get("C-cudaMemcpy")
	for i := range v.Points {
		if !(tri.Points[i].Y < v.Points[i].Y) {
			t.Fatalf("N=%v: T (%.1f) not below V (%.1f)", v.Points[i].X, tri.Points[i].Y, v.Points[i].Y)
		}
		if !(v.Points[i].Y < c.Points[i].Y) {
			t.Fatalf("N=%v: V (%.1f) not below C (%.1f)", v.Points[i].X, v.Points[i].Y, c.Points[i].Y)
		}
		if stair.Points[i].Y < 0.9*v.Points[i].Y {
			t.Fatalf("N=%v: stair (%.1f) does not recover V (%.1f)", v.Points[i].X, stair.Points[i].Y, v.Points[i].Y)
		}
		ratioV := v.Points[i].Y / c.Points[i].Y
		if ratioV < 0.90 || ratioV > 0.97 {
			t.Fatalf("N=%v: V/C = %.3f, want ~0.94", v.Points[i].X, ratioV)
		}
	}
}

func TestFig7Relations(t *testing.T) {
	f := Fig7([]int{2048})
	y := func(name string) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Points[0].Y
			}
		}
		t.Fatalf("missing %s", name)
		return 0
	}
	if !(y("T-d2d-pipeline") < y("T-d2d")) {
		t.Fatalf("pipeline (%.3f) not faster than plain (%.3f)", y("T-d2d-pipeline"), y("T-d2d"))
	}
	if !(y("T-d2d-cached") < y("T-d2d-pipeline")) {
		t.Fatalf("cached (%.3f) not faster than pipeline (%.3f)", y("T-d2d-cached"), y("T-d2d-pipeline"))
	}
	if !(y("V-cpy") < y("V-d2d2h")) {
		t.Fatalf("zero copy (%.3f) not faster than explicit d2d2h (%.3f)", y("V-cpy"), y("V-d2d2h"))
	}
}

func TestFig8AlignmentCliff(t *testing.T) {
	f := Fig8([]int64{1024}, []int64{1000, 1024})
	y := func(name string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				for _, p := range s.Points {
					if p.X == x {
						return p.Y
					}
				}
			}
		}
		t.Fatalf("missing %s@%v", name, x)
		return 0
	}
	// memcpy2d d2h collapses off the 64-byte fast path; the kernel does not.
	if !(y("mcp2d-d2h/1K", 1000) > 2*y("mcp2d-d2h/1K", 1024)) {
		t.Fatalf("no memcpy2d cliff: %v vs %v", y("mcp2d-d2h/1K", 1000), y("mcp2d-d2h/1K", 1024))
	}
	ratio := y("kernel-d2h(cpy)/1K", 1000) / y("kernel-d2h(cpy)/1K", 1024)
	if ratio > 1.5 {
		t.Fatalf("kernel zero-copy should not cliff: ratio %.2f", ratio)
	}
	// In-GPU: kernel tracks memcpy2d.
	kr := y("kernel-d2d/1K", 1024) / y("mcp2d-d2d/1K", 1024)
	if kr < 0.5 || kr > 2 {
		t.Fatalf("kernel-d2d vs mcp2d-d2d ratio %.2f, want ~1", kr)
	}
}

func TestFig9Shape(t *testing.T) {
	f := Fig9([]int{2048})
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Name] = s.Points[0].Y
	}
	if !(y["T"] < y["V"] && y["V"] <= y["C"]*1.02) {
		t.Fatalf("expected T < V <= C, got T=%.2f V=%.2f C=%.2f", y["T"], y["V"], y["C"])
	}
	if y["V"] < 0.80*y["C"] {
		t.Fatalf("V achieves %.2f of C=%.2f, want >= 80%%", y["V"], y["C"])
	}
	t.Logf("PCIe ping-pong: V=%.2f (%.0f%% of C), T=%.2f (%.0f%% of C), C=%.2f GB/s",
		y["V"], 100*y["V"]/y["C"], y["T"], 100*y["T"]/y["C"], y["C"])
}

func TestFig10OursBeatsMVAPICH(t *testing.T) {
	for _, topo := range []Topology{OneGPU, TwoGPU, TwoNode} {
		f := Fig10(topo, []int{1024})
		y := map[string]float64{}
		for _, s := range f.Series {
			y[s.Name] = s.Points[0].Y
		}
		for _, dt := range []string{"V", "T"} {
			ours := y[dt+"-"+topo.String()]
			mv := y[dt+"-"+topo.String()+"-MVAPICH"]
			if !(ours < mv) {
				t.Fatalf("%s/%s: ours %.3f not faster than MVAPICH %.3f", topo, dt, ours, mv)
			}
		}
		// The indexed gap must be much larger than the vector gap.
		gapT := y["T-"+topo.String()+"-MVAPICH"] / y["T-"+topo.String()]
		gapV := y["V-"+topo.String()+"-MVAPICH"] / y["V-"+topo.String()]
		if gapT < gapV {
			t.Fatalf("%s: indexed gap (%.1fx) should exceed vector gap (%.1fx)", topo, gapT, gapV)
		}
		t.Logf("%s: V gap %.1fx, T gap %.1fx", topo, gapV, gapT)
	}
}

func TestSec53Knee(t *testing.T) {
	f := Sec53(2048, []int{1, 2, 4, 30})
	v := f.Series[0]
	// One block is already nearly enough: going from 4 to 30 blocks must
	// change little (PCIe-bound), while 1 block may be slightly slower.
	if v.Points[3].Y > v.Points[0].Y {
		t.Fatalf("more blocks slower? %v", v.Points)
	}
	improvement := v.Points[0].Y / v.Points[3].Y
	if improvement > 3 {
		t.Fatalf("1 block -> 30 blocks improved %.1fx; communication should be PCIe-bound", improvement)
	}
	tail := v.Points[2].Y / v.Points[3].Y
	if tail > 1.1 {
		t.Fatalf("4 blocks (%.3f) should be within 10%% of 30 blocks (%.3f)", v.Points[2].Y, v.Points[3].Y)
	}
}

func TestSec54Degrades(t *testing.T) {
	f := Sec54(1024, []float64{0, 0.5, 0.9})
	v2 := f.Series[0] // V-2GPU (PCIe bound)
	v1 := f.Series[2] // V-1GPU (DRAM bound)
	if !(v2.Points[0].Y <= v2.Points[1].Y && v2.Points[1].Y <= v2.Points[2].Y) {
		t.Fatalf("interference not monotone: %v", v2.Points)
	}
	// PCIe-bound transfers barely notice the background app...
	if v2.Points[2].Y > 1.3*v2.Points[0].Y {
		t.Fatalf("2GPU ping-pong should be PCIe-bound: %v", v2.Points)
	}
	// ...but DRAM-bound intra-GPU transfers degrade clearly.
	if v1.Points[2].Y < 2*v1.Points[0].Y {
		t.Fatalf("1GPU ping-pong should feel a 90%% background load: %v", v1.Points)
	}
}

func TestAblationRemoteUnpackShape(t *testing.T) {
	f := AblationRemoteUnpack([]int{1024})
	staged, direct := f.Series[0].Points[0].Y, f.Series[1].Points[0].Y
	if !(staged < direct) {
		t.Fatalf("staged (%.3f) should beat direct (%.3f)", staged, direct)
	}
}

func TestFig1SolutionDWins(t *testing.T) {
	f := Fig1Solutions([]int{512})
	y := map[string]float64{}
	for _, s := range f.Series {
		y[s.Name] = s.Points[0].Y
	}
	if !(y["d-gpu-pack"] < y["a-copy-with-gaps"] && y["d-gpu-pack"] < y["b-per-block-d2h"]) {
		t.Fatalf("solution d should win: %v", y)
	}
	if !(y["b-per-block-d2h"] > y["a-copy-with-gaps"]) {
		t.Fatalf("per-block memcpy should collapse for a 512-column triangle: %v", y)
	}
}

func TestPingPongHostConfig(t *testing.T) {
	rt := PingPong(PingPongSpec{Topo: TwoGPU, Dt0: shapes.SubMatrix(512, 512, 512), Count: 1, OnHost: true})
	if rt <= 0 {
		t.Fatal("no measurement")
	}
	_ = sim.Time(0)
}

// TestDeterministicVirtualTime runs the same experiment in two fresh
// worlds and requires bit-identical virtual timings — the property that
// makes every number in EXPERIMENTS.md reproducible on any machine.
func TestDeterministicVirtualTime(t *testing.T) {
	spec := PingPongSpec{Topo: TwoGPU, Dt0: shapes.LowerTriangular(1024), Count: 1}
	a := PingPong(spec)
	b := PingPong(spec)
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
	specIB := PingPongSpec{Topo: TwoNode, Dt0: vMat(1024), Count: 1}
	if x, y := PingPong(specIB), PingPong(specIB); x != y {
		t.Fatalf("nondeterministic over IB: %v vs %v", x, y)
	}
}
