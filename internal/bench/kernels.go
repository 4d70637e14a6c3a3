package bench

import (
	"fmt"

	"gpuddt/internal/cluster"
	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// DefaultSizes is the matrix-size sweep used by the figure runners.
var DefaultSizes = []int{1024, 2048, 4096, 8192}

// vMat is the paper's "V" workload: an N x N sub-matrix inside a larger
// column-major matrix (leading dimension N+32), so columns are
// contiguous but the type as a whole is strided — unlike a full matrix,
// which would collapse to a single contiguous block.
func vMat(n int) *datatype.Datatype { return shapes.SubMatrix(n, n, n+32) }

// bigGPU returns a K40 profile with enough simulated memory for the
// N=8192 sweeps (512 MB matrix + packed buffer + staging).
func bigGPU() gpu.Params {
	p := gpu.KeplerK40()
	p.MemBytes = 6 << 30
	return p
}

func bigPCIe() pcie.Params {
	p := pcie.DefaultParams()
	p.HostMemBytes = 6 << 30
	return p
}

// bigConfig is spec's world configuration on those two profiles.
func bigConfig(spec cluster.Spec) mpi.Config {
	cfg := spec.Config()
	cfg.GPU, cfg.PCIe = bigGPU(), bigPCIe()
	return cfg
}

// kernelRig is a single-process, single-GPU setup for Figs. 6-8.
type kernelRig struct {
	eng  *sim.Engine
	ctx  *cuda.Ctx
	e    *core.Engine
	node *pcie.Node
}

func newKernelRig(opts core.Options) *kernelRig {
	e := sim.NewEngine()
	attachTrace(e, "")
	node := pcie.NewNode(e, 0, 1, bigGPU(), bigPCIe())
	ctx := cuda.NewCtx(node)
	return &kernelRig{eng: e, ctx: ctx, e: core.New(ctx, 0, opts), node: node}
}

// close recycles the rig's memory backing into the slab pool. The rig
// must not be used afterwards.
func (r *kernelRig) close() { r.node.Release() }

// timed runs the rig's one simulation — warm, then body, on a process
// of the given name — and returns the virtual time body took. A rig is
// timed once.
func (r *kernelRig) timed(name string, warm, body func(p *sim.Proc)) sim.Time {
	var dur sim.Time
	r.eng.Spawn(name, func(p *sim.Proc) {
		if warm != nil {
			warm(p)
		}
		t0 := p.Now()
		body(p)
		dur = p.Now() - t0
	})
	r.eng.Run()
	return dur
}

// timePack measures one pack of (dt, 1) after the given number of warmup
// packs (warmup > 0 measures the DEV-cached regime, as the paper's
// "cached" curves do).
func (r *kernelRig) timePack(dt *datatype.Datatype, warmup int) sim.Time {
	data := r.ctx.Malloc(0, dt.Span(1))
	dst := r.ctx.Malloc(0, dt.Size())
	pack := func(p *sim.Proc) { r.e.Pack(p, data, dt, 1, dst) }
	return r.timed("pack", func(p *sim.Proc) {
		for i := 0; i < warmup; i++ {
			pack(p)
		}
	}, pack)
}

// packGBps is the cell of one datatype family's cached pack: bandwidth
// of the second pack of (dt(n), 1) on a fresh rig.
func packGBps(name string, dt func(n int) *datatype.Datatype) cell[int] {
	return cell[int]{name, func(n int) float64 {
		r := newKernelRig(core.Options{})
		defer r.close()
		t := dt(n)
		return sim.GBps(t.Size(), r.timePack(t, 1))
	}}
}

// Fig6 reproduces "GPU memory bandwidth of packing kernels": pack
// bandwidth of the sub-matrix (V), lower triangular (T) and
// stair-triangular (T-stair) types against a contiguous cudaMemcpy of
// the same size (C-cudaMemcpy). Kernel-only: DEV lists are cached.
func Fig6(sizes []int) *Figure {
	f := &Figure{
		ID:     "fig6",
		Title:  "GPU memory bandwidth of packing kernels",
		XLabel: "MatrixSize",
		YLabel: "GB/s",
		Note:   "Paper: V ~94% of cudaMemcpy, T ~80%, T-stair recovers V.",
	}
	return sweep(f, sizes,
		packGBps("T", shapes.LowerTriangular),
		packGBps("V", vMat),
		packGBps("T-stair", func(n int) *datatype.Datatype { return shapes.StairTriangular(n, stairNB(n)) }),
		cell[int]{"C-cudaMemcpy", func(n int) float64 {
			r := newKernelRig(core.Options{})
			defer r.close()
			sz := shapes.MatrixBytes(n)
			src := r.ctx.Malloc(0, sz)
			dst := r.ctx.Malloc(0, sz)
			return sim.GBps(sz, r.timed("memcpy", nil, func(p *sim.Proc) { r.ctx.Memcpy(p, dst, src) }))
		}})
}

// stairNB picks a stair step that divides n and keeps units aligned.
func stairNB(n int) int {
	for _, nb := range []int{256, 128, 64, 32} {
		if n%nb == 0 {
			return nb
		}
	}
	return n
}

// fig7Case runs pack+unpack round trips for one datatype/config.
type fig7Case struct {
	name    string
	dt      func(n int) *datatype.Datatype
	opts    core.Options
	warmup  int  // packs before measuring (cached curves)
	viaHost bool // d2d2h: move packed data to host and back
	zeroCpy bool // cpy: pack/unpack directly against host (UMA)
}

// Fig7 reproduces "performance of pack and unpack vs matrix size": the
// in-GPU (bypass CPU) and through-host variants, with and without
// pipelining and DEV caching.
func Fig7(sizes []int) *Figure {
	f := &Figure{
		ID:     "fig7",
		Title:  "Pack+unpack time vs matrix size (bypass CPU / through CPU)",
		XLabel: "MatrixSize",
		YLabel: "ms",
		Note:   "Paper: pipelining ~halves T-d2d; caching removes DEV prep; zero copy slightly beats explicit d2d2h.",
	}
	tri, sub := shapes.LowerTriangular, vMat
	noPipe := core.Options{NoPipeline: true, NoCacheDEV: true}
	pipe := core.Options{NoCacheDEV: true}
	cached := core.Options{}
	cases := []fig7Case{
		{name: "V-d2d", dt: sub, opts: cached},
		{name: "T-d2d", dt: tri, opts: noPipe},
		{name: "T-d2d-pipeline", dt: tri, opts: pipe},
		{name: "T-d2d-cached", dt: tri, opts: cached, warmup: 1},
		{name: "V-d2d2h", dt: sub, opts: cached, viaHost: true},
		{name: "V-cpy", dt: sub, opts: cached, zeroCpy: true},
		{name: "T-d2d2h-cached", dt: tri, opts: cached, warmup: 1, viaHost: true},
		{name: "T-cpy-cached", dt: tri, opts: cached, warmup: 1, zeroCpy: true},
	}
	var cells []cell[int]
	for _, c := range cases {
		cells = append(cells, cell[int]{c.name, func(n int) float64 { return runFig7Case(c, n).Millis() }})
	}
	return sweep(f, sizes, cells...)
}

func runFig7Case(c fig7Case, n int) sim.Time {
	r := newKernelRig(c.opts)
	defer r.close()
	dt := c.dt(n)
	data := r.ctx.Malloc(0, dt.Span(1))
	packedDev := r.ctx.Malloc(0, dt.Size())
	hostBuf := r.ctx.MallocHost(dt.Size())
	return r.timed("fig7", func(p *sim.Proc) {
		for i := 0; i < c.warmup; i++ {
			r.e.Pack(p, data, dt, 1, packedDev)
			r.e.Unpack(p, data, dt, 1, packedDev)
		}
	}, func(p *sim.Proc) {
		switch {
		case c.zeroCpy:
			// Zero copy: pack straight into mapped host memory and
			// unpack straight out of it; the hardware overlaps the
			// PCIe movement with the kernels.
			r.e.Pack(p, data, dt, 1, hostBuf)
			r.e.Unpack(p, data, dt, 1, hostBuf)
		case c.viaHost:
			r.e.Pack(p, data, dt, 1, packedDev)
			r.ctx.Memcpy(p, hostBuf, packedDev)
			r.ctx.Memcpy(p, packedDev, hostBuf)
			r.e.Unpack(p, data, dt, 1, packedDev)
		default:
			r.e.Pack(p, data, dt, 1, packedDev)
			r.e.Unpack(p, data, dt, 1, packedDev)
		}
	})
}

// Fig8BlockSizes is the block-size sweep (bytes); it deliberately mixes
// 64-byte multiples with sizes that break cudaMemcpy2D's alignment fast
// path.
var Fig8BlockSizes = []int64{64, 200, 256, 1000, 1024, 4000, 4096, 16384}

// Fig8 reproduces "vector pack/unpack performance vs cudaMemcpy2D":
// pack time of a byte-Hvector with the given block count, as block size
// varies, for the specialized kernel and for cudaMemcpy2D, each in
// d2d / d2d2h / d2h(zero-copy) variants.
func Fig8(blockCounts []int64, blockSizes []int64) *Figure {
	f := &Figure{
		ID:     "fig8",
		Title:  "Vector kernel vs cudaMemcpy2D (pack one direction)",
		XLabel: "BlockBytes",
		YLabel: "ms",
		Note:   "Paper: memcpy2d collapses off the 64B-pitch fast path; kernel-d2d tracks mcp2d-d2d.",
	}
	variants := []struct {
		name   string
		mcp2d  bool // cudaMemcpy2D instead of the vector kernel
		toHost bool // straight into (mapped) host memory
		d2h    bool // then cudaMemcpy the packed device buffer to host
	}{
		{name: "kernel-d2d"},
		{name: "kernel-d2d2h", d2h: true},
		{name: "kernel-d2h(cpy)", toHost: true},
		{name: "mcp2d-d2d", mcp2d: true},
		{name: "mcp2d-d2h", mcp2d: true, toHost: true},
		{name: "mcp2d-d2d2h", mcp2d: true, d2h: true},
	}
	var cells []cell[int64]
	for _, blocks := range blockCounts {
		for _, v := range variants {
			cells = append(cells, cell[int64]{fmt.Sprintf("%s/%dK", v.name, blocks>>10), func(bs int64) float64 {
				stride := 2 * bs
				dt := datatype.Hvector(int(blocks), int(bs), stride, datatype.Byte)
				r := newKernelRig(core.Options{})
				defer r.close()
				data := r.ctx.Malloc(0, dt.Span(1))
				dev := r.ctx.Malloc(0, dt.Size())
				host := r.ctx.MallocHost(dt.Size())
				dst := dev
				if v.toHost {
					dst = host
				}
				// Warm the DEV cache so kernel curves are kernel-only.
				warm := func(p *sim.Proc) { r.e.Pack(p, data, dt, 1, dev) }
				return r.timed("fig8", warm, func(p *sim.Proc) {
					if v.mcp2d {
						r.ctx.Memcpy2D(p, dst, bs, data, stride, bs, blocks)
					} else {
						r.e.Pack(p, data, dt, 1, dst)
					}
					if v.d2h {
						r.ctx.Memcpy(p, host, dev)
					}
				}).Millis()
			}})
		}
	}
	return sweep(f, blockSizes, cells...)
}

// AblationUnitSize sweeps the CUDA-DEV split size S for the triangular
// pack (DESIGN.md A1). The paper fixes S at 1-4 KB after the same
// trade-off: small S balances ragged columns better but multiplies
// per-unit overheads.
func AblationUnitSize(n int, unitSizes []int64) *Figure {
	f := &Figure{
		ID:     "ablation-unitsize",
		Title:  fmt.Sprintf("CUDA-DEV unit size S, triangular N=%d (uncached)", n),
		XLabel: "S bytes",
		YLabel: "GB/s",
	}
	dt := shapes.LowerTriangular(n)
	return sweep(f, unitSizes, cell[int64]{"T pack", func(us int64) float64 {
		r := newKernelRig(core.Options{UnitSize: us, NoCacheDEV: true})
		defer r.close()
		return sim.GBps(dt.Size(), r.timePack(dt, 0))
	}})
}
