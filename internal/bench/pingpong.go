package bench

import (
	"fmt"
	"io"

	"gpuddt/internal/baseline"
	"gpuddt/internal/cluster"
	"gpuddt/internal/core"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
	"gpuddt/internal/trace"
)

// Topology selects the ping-pong configuration of §5.2.
type Topology int

// The three configurations of Fig. 10.
const (
	OneGPU  Topology = iota // both ranks share one GPU (SM, CUDA IPC)
	TwoGPU                  // two GPUs on one node (SM, P2P)
	TwoNode                 // two nodes over InfiniBand
)

func (tp Topology) String() string {
	switch tp {
	case OneGPU:
		return "1GPU"
	case TwoGPU:
		return "2GPU"
	default:
		return "IB"
	}
}

// Spec maps the configuration to its cluster shape.
func (tp Topology) Spec() cluster.Spec {
	switch tp {
	case OneGPU:
		return cluster.OneGPU()
	case TwoGPU:
		return cluster.TwoGPU()
	default:
		return cluster.TwoNode()
	}
}

// PingPongSpec describes one ping-pong measurement.
type PingPongSpec struct {
	Topo     Topology
	Dt0      *datatype.Datatype // rank 0's datatype
	Dt1      *datatype.Datatype // rank 1's (defaults to Dt0)
	Count    int
	OnHost   bool        // data in host memory instead of GPU (the CPU config)
	Iters    int         // timed round trips (0 = 3)
	Tuning   *mpi.Tuning // nil = the paper's pipelined protocols at defaults
	Engine   core.Options
	BlockCap int     // §5.3: restrict pack/unpack kernels to k blocks
	BGBlocks int     // §5.4: background app CUDA blocks
	BGDRAM   float64 // §5.4: background app DRAM fraction

	// Trace, if non-nil, receives a link-utilization report after the
	// run (internal/trace).
	Trace io.Writer

	// TraceJSON, if non-nil, receives a Chrome trace-event JSON of the
	// run (loadable in chrome://tracing or Perfetto).
	TraceJSON io.Writer

	// TraceTimeline, if non-nil, receives the plain-text timeline.
	TraceTimeline io.Writer

	// TracePhases, if non-nil, receives the per-message phase
	// attribution (time in pack vs wire vs unpack).
	TracePhases io.Writer
}

// traced reports whether the spec asks for a timeline of its own.
func (sp *PingPongSpec) traced() bool {
	return sp.TraceJSON != nil || sp.TraceTimeline != nil || sp.TracePhases != nil
}

// PingPong runs the benchmark and returns the average round-trip time.
func PingPong(sp PingPongSpec) sim.Time {
	cfg := bigConfig(sp.Topo.Spec().Tuned(sp.Tuning))
	cfg.Engine = sp.Engine
	w := mpi.NewWorld(cfg)
	defer w.Close()
	label := fmt.Sprintf("pingpong %s %s", sp.Topo, sp.Dt0.Name())
	rec := attachTrace(w.Engine(), label)
	if rec == nil && sp.traced() {
		rec = sim.NewRecorder(w.Engine())
	}
	for ni := 0; ni < cfg.Nodes; ni++ {
		node := w.Node(ni)
		for g := 0; g < node.NumGPUs(); g++ {
			if sp.BlockCap > 0 {
				node.GPU(g).SetBlockCap(sp.BlockCap)
			}
			if sp.BGBlocks > 0 || sp.BGDRAM > 0 {
				node.GPU(g).SetBackgroundLoad(sp.BGBlocks, sp.BGDRAM)
			}
		}
	}

	rt := pingPongOn(w, sp)
	if sp.Trace != nil {
		trace.Report(sp.Trace, w.Engine())
	}
	if rec != nil && sp.traced() {
		if err := rec.Validate(); err != nil {
			panic(err)
		}
		if sp.TraceJSON != nil {
			if err := trace.WriteChrome(sp.TraceJSON, trace.Run{Name: label, Rec: rec}); err != nil {
				panic(err)
			}
		}
		if sp.TraceTimeline != nil {
			trace.WriteTimeline(sp.TraceTimeline, rec)
		}
		if sp.TracePhases != nil {
			trace.WritePhases(sp.TracePhases, rec)
		}
	}
	return rt
}

// pingPongWarmup is the number of untimed round trips before the timed ones.
const pingPongWarmup = 1

// pingPongOn runs sp's warm ping-pong loop between ranks 0 and 1 of a
// prebuilt world and returns the average round trip.
func pingPongOn(w *mpi.World, sp PingPongSpec) sim.Time {
	if sp.Dt1 == nil {
		sp.Dt1 = sp.Dt0
	}
	if sp.Iters == 0 {
		sp.Iters = 3
	}
	var rt sim.Time
	w.Run(func(m *mpi.Rank) {
		dt := sp.Dt0
		if m.Rank() == 1 {
			dt = sp.Dt1
		}
		span := dt.Span(sp.Count)
		var buf = m.Malloc(span)
		if sp.OnHost {
			buf = m.MallocHost(span)
		}
		m.Barrier()
		var t0 sim.Time
		for i := 0; i < pingPongWarmup+sp.Iters; i++ {
			if i == pingPongWarmup {
				t0 = m.Now()
			}
			if m.Rank() == 0 {
				m.Send(buf, dt, sp.Count, 1, i)
				m.Recv(buf, dt, sp.Count, 1, i+1000)
			} else {
				m.Recv(buf, dt, sp.Count, 0, i)
				m.Send(buf, dt, sp.Count, 0, i+1000)
			}
		}
		if m.Rank() == 0 {
			rt = (m.Now() - t0) / sim.Time(sp.Iters)
		}
	})
	return rt
}

// matShape is a matrix datatype family the figures sweep by size.
type matShape struct {
	label string
	dt    func(n int) *datatype.Datatype
}

var (
	shapeV = matShape{"V", vMat}
	shapeT = matShape{"T", shapes.LowerTriangular}
)

// pingMs is the cell of one ping-pong configuration: its round trip in
// milliseconds.
func pingMs[X number](name string, spec func(x X) PingPongSpec) cell[X] {
	return cell[X]{name, func(x X) float64 { return PingPong(spec(x)).Millis() }}
}

// vsMVAPICH is the pair of cells Figs. 10-12 plot for one ping-pong:
// the paper's protocols and the MVAPICH-style baseline on the same
// topology and datatypes.
func vsMVAPICH(name string, spec func(n int) PingPongSpec) []cell[int] {
	return []cell[int]{
		pingMs(name, spec),
		pingMs(name+"-MVAPICH", func(n int) PingPongSpec {
			sp := spec(n)
			sp.Tuning = &mpi.Tuning{Strategy: &baseline.MVAPICHStrategy{}}
			return sp
		}),
	}
}

// Fig9 reproduces "PCI-E bandwidth of ping-pong benchmark": achieved
// per-direction PCIe bandwidth of V, T and C datatypes between two GPUs
// on one node.
func Fig9(sizes []int) *Figure {
	f := &Figure{
		ID:     "fig9",
		Title:  "PCI-E bandwidth of ping-pong (2 GPUs, shared memory)",
		XLabel: "MatrixSize",
		YLabel: "GB/s",
		Note:   "Paper: ~90% (V) and ~78% (T) of the contiguous PCIe bandwidth.",
	}
	var cells []cell[int]
	for _, sh := range []matShape{shapeV, shapeT, {"C", shapes.FullMatrix}} {
		cells = append(cells, cell[int]{sh.label, func(n int) float64 {
			dt := sh.dt(n)
			rt := PingPong(PingPongSpec{Topo: TwoGPU, Dt0: dt, Count: 1})
			return sim.GBps(dt.Size(), rt/2)
		}})
	}
	return sweep(f, sizes, cells...)
}

// Fig10 reproduces the three ping-pong sub-figures: time vs matrix size
// for V and T, ours vs the MVAPICH-style baseline.
func Fig10(topo Topology, sizes []int) *Figure {
	f := &Figure{
		ID:     "fig10" + map[Topology]string{OneGPU: "a", TwoGPU: "b", TwoNode: "c"}[topo],
		Title:  fmt.Sprintf("Ping-pong with matrices, %s", topo),
		XLabel: "MatrixSize",
		YLabel: "ms",
		Note:   "Paper: ours wins everywhere; MVAPICH's indexed path leaves the chart.",
	}
	var cells []cell[int]
	for _, sh := range []matShape{shapeT, shapeV} {
		cells = append(cells, vsMVAPICH(fmt.Sprintf("%s-%s", sh.label, topo), func(n int) PingPongSpec {
			return PingPongSpec{Topo: topo, Dt0: sh.dt(n), Count: 1}
		})...)
	}
	return sweep(f, sizes, cells...)
}

// toContig is the body of Figs. 11 and 12: rank 0 sends the given
// non-contiguous view, rank 1 receives contiguous, over shared memory
// and over InfiniBand.
func toContig(f *Figure, label string, view func(n int) *datatype.Datatype, sizes []int) *Figure {
	var cells []cell[int]
	for _, topo := range []Topology{TwoGPU, TwoNode} {
		cells = append(cells, vsMVAPICH(fmt.Sprintf("%s-%s", label, topo), func(n int) PingPongSpec {
			return PingPongSpec{Topo: topo, Dt0: view(n), Dt1: shapes.FullMatrix(n), Count: 1}
		})...)
	}
	return sweep(f, sizes, cells...)
}

// Fig11 reproduces the vector↔contiguous ping-pong (FFT-style reshape):
// rank 0 holds a sub-matrix view, rank 1 receives contiguous.
func Fig11(sizes []int) *Figure {
	return toContig(&Figure{
		ID:     "fig11",
		Title:  "Vector-contiguous ping-pong (FFT reshape)",
		XLabel: "MatrixSize",
		YLabel: "ms",
		Note:   "Paper: the handshake lets the sender pack directly into the receiver buffer (RDMA + zero copy).",
	}, "VC", vMat, sizes)
}

// Fig12 reproduces the matrix-transpose ping-pong stress test: the
// sender transmits the transposed view (N vectors of blocklength 1); the
// receiver stores contiguous.
func Fig12(sizes []int) *Figure {
	return toContig(&Figure{
		ID:     "fig12",
		Title:  "Matrix transpose ping-pong",
		XLabel: "MatrixSize",
		YLabel: "ms",
		Note:   "Stress test: 8-byte blocks defeat coalescing for us and explode call counts for MVAPICH.",
	}, "TR", shapes.Transpose, sizes)
}

// Sec53 reproduces §5.3: how many CUDA blocks the pack/unpack kernels
// need before communication stops improving (the PCIe bottleneck takes
// over).
func Sec53(n int, blockCaps []int) *Figure {
	f := &Figure{
		ID:     "sec5.3",
		Title:  fmt.Sprintf("Minimal GPU resources: ping-pong (2 GPUs) N=%d vs kernel grid size", n),
		XLabel: "CUDABlocks",
		YLabel: "ms",
		Note:   "Paper: a handful of blocks saturates PCIe; the rest of the GPU stays available.",
	}
	var cells []cell[int]
	for _, sh := range []matShape{shapeV, shapeT} {
		cells = append(cells, pingMs(sh.label, func(k int) PingPongSpec {
			return PingPongSpec{Topo: TwoGPU, Dt0: sh.dt(n), Count: 1, BlockCap: k}
		}))
	}
	return sweep(f, blockCaps, cells...)
}

// Sec54 reproduces §5.4: ping-pong degradation when a co-resident
// GPU-intensive application consumes a growing share of the GPU.
// Intra-GPU transfers are DRAM-bound, so the background app's bandwidth
// share hits them much harder than the PCIe-bound 2-GPU transfers.
func Sec54(n int, loads []float64) *Figure {
	f := &Figure{
		ID:     "sec5.4",
		Title:  fmt.Sprintf("Shared-GPU interference: ping-pong N=%d vs background load", n),
		XLabel: "BackgroundLoad",
		YLabel: "ms",
		Note:   "PCIe-bound inter-GPU transfers barely degrade (packing needs few resources); DRAM-bound intra-GPU transfers feel the background app's bandwidth share.",
	}
	total := bigGPU().DefaultBlocks
	var cells []cell[float64]
	for _, topo := range []Topology{TwoGPU, OneGPU} {
		for _, sh := range []matShape{shapeV, shapeT} {
			cells = append(cells, pingMs(fmt.Sprintf("%s-%s", sh.label, topo), func(load float64) PingPongSpec {
				return PingPongSpec{
					Topo: topo, Dt0: sh.dt(n), Count: 1,
					BGBlocks: int(float64(total) * load), BGDRAM: load * 0.9,
				}
			}))
		}
	}
	return sweep(f, loads, cells...)
}

// AblationPipeline sweeps the BTL pipeline fragment size (DESIGN.md A2).
func AblationPipeline(n int, fragSizes []int64) *Figure {
	f := &Figure{
		ID:     "ablation-fragsize",
		Title:  fmt.Sprintf("Pipeline fragment size, 2-GPU ping-pong N=%d", n),
		XLabel: "FragBytes",
		YLabel: "ms",
	}
	return sweep(f, fragSizes, pingMs("V", func(fb int64) PingPongSpec {
		return PingPongSpec{Topo: TwoGPU, Dt0: vMat(n), Count: 1, Tuning: &mpi.Tuning{FragBytes: fb}}
	}))
}

// AblationRemoteUnpack compares staged vs direct remote unpacking
// (DESIGN.md A3, §5.2.1's 5-10% claim).
func AblationRemoteUnpack(sizes []int) *Figure {
	f := &Figure{
		ID:     "ablation-remoteunpack",
		Title:  "Receiver staging vs direct remote unpack (2-GPU ping-pong, T)",
		XLabel: "MatrixSize",
		YLabel: "ms",
	}
	tri := func(tun *mpi.Tuning) func(n int) PingPongSpec {
		return func(n int) PingPongSpec {
			return PingPongSpec{Topo: TwoGPU, Dt0: shapes.LowerTriangular(n), Count: 1, Tuning: tun}
		}
	}
	return sweep(f, sizes,
		pingMs("staged", tri(nil)),
		pingMs("direct", tri(&mpi.Tuning{DirectRemoteUnpack: true})))
}

// Fig1Solutions benchmarks the four approaches of Fig. 1 on a triangular
// matrix pack to host (solutions a/b/c vs the GPU datatype engine).
func Fig1Solutions(sizes []int) *Figure {
	f := &Figure{
		ID:     "fig1",
		Title:  "Fig. 1 solutions: non-contiguous GPU data to contiguous host buffer (T)",
		XLabel: "MatrixSize",
		YLabel: "ms",
		Note:   "d (GPU pack + zero copy) wins; b collapses on per-block memcpy overhead.",
	}
	names := [4]string{"a-copy-with-gaps", "b-per-block-d2h", "c-per-block-d2d", "d-gpu-pack"}
	pts := pmap(len(sizes), func(i int) (ms [4]float64) {
		dt := shapes.LowerTriangular(sizes[i])
		r := newKernelRig(core.Options{})
		defer r.close()
		span := dt.Span(1)
		data := r.ctx.Malloc(0, span)
		host := r.ctx.MallocHost(dt.Size())
		devDst := r.ctx.Malloc(0, dt.Size())
		scratch := r.ctx.MallocHost(span)
		r.eng.Spawn("fig1", func(p *sim.Proc) {
			for k, solve := range [4]func(){
				func() { baseline.SolutionA(p, r.ctx, data, dt, 1, host, scratch) },
				func() { baseline.SolutionB(p, r.ctx, data, dt, 1, host) },
				func() { baseline.SolutionC(p, r.ctx, data, dt, 1, devDst) },
				func() { r.e.Pack(p, data, dt, 1, host) }, // zero-copy pack to host
			} {
				t0 := p.Now()
				solve()
				ms[k] = (p.Now() - t0).Millis()
			}
		})
		r.eng.Run()
		return ms
	})
	for k, name := range names {
		s := f.NewSeries(name)
		for i, n := range sizes {
			s.Add(float64(n), pts[i][k])
		}
	}
	return f
}
