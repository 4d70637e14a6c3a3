package bench

import (
	"fmt"

	"gpuddt/internal/baseline"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// Application-level benchmarks modeled on the workloads the paper's
// introduction motivates (§1, §3): the SHOC 2D stencil halo exchange,
// LAMMPS-style indexed particle migration, and a ScaLAPACK-style
// collection of a block-cyclic distributed matrix. Each is measured
// with the paper's engine and with the MVAPICH-style baseline.

// AppHalo runs a 2-rank, 2-GPU stencil halo exchange: per iteration each
// rank exchanges one contiguous row boundary and one non-contiguous
// column boundary (vector type), like SHOC's 2D stencil.
func AppHalo(n, iters int, strategy mpi.Strategy) sim.Time {
	// Force the DDT protocols even for one column.
	tun := &mpi.Tuning{Eager: mpi.Eager(1), Strategy: strategy}
	cfg := cluster.TwoGPU().Tuned(tun).Config()
	cfg.GPU = bigGPU()
	cfg.PCIe = bigPCIe()
	w := mpi.NewWorld(cfg)
	attachTrace(w.Engine(), "app:halo")
	defer w.Close()
	pitch := int64(n+2) * 8
	col := shapes.HaloColumn(n)
	row := datatype.Contiguous(n, datatype.Float64)
	var per sim.Time
	w.Run(func(m *mpi.Rank) {
		grid := m.Malloc(int64(n+2) * pitch)
		peer := 1 - m.Rank()
		m.Barrier()
		t0 := m.Now()
		for it := 0; it < iters; it++ {
			// Column (non-contiguous) exchange.
			m.SendRecv(
				grid.Slice(pitch+8, int64(n)*pitch), col, 1, peer, 2*it,
				grid.Slice(pitch, int64(n)*pitch), col, 1, peer, 2*it,
			)
			// Row (contiguous) exchange.
			m.SendRecv(
				grid.Slice(pitch+8, int64(n)*8), row, 1, peer, 2*it+1,
				grid.Slice(8, int64(n)*8), row, 1, peer, 2*it+1,
			)
		}
		if m.Rank() == 0 {
			per = (m.Now() - t0) / sim.Time(iters)
		}
	})
	return per
}

// AppParticles runs a LAMMPS-style migration: an indexed datatype
// gathers every 19th particle record from GPU memory and ships it to a
// neighbour over InfiniBand.
func AppParticles(nParticles, recordElems, iters int, strategy mpi.Strategy) sim.Time {
	var idx []int
	for i := 0; i < nParticles; i += 19 {
		idx = append(idx, i)
	}
	ddt := shapes.ParticleIndices(idx, recordElems)
	recv := datatype.Contiguous(len(idx)*recordElems, datatype.Float64)
	cfg := cluster.TwoNode().Tuned(&mpi.Tuning{Strategy: strategy}).Config()
	cfg.GPU = bigGPU()
	cfg.PCIe = bigPCIe()
	w := mpi.NewWorld(cfg)
	attachTrace(w.Engine(), "app:particles")
	defer w.Close()
	var per sim.Time
	w.Run(func(m *mpi.Rank) {
		buf := m.Malloc(int64(nParticles*recordElems) * 8)
		m.Barrier()
		t0 := m.Now()
		for it := 0; it < iters; it++ {
			if m.Rank() == 0 {
				m.Send(buf, ddt, 1, 1, it)
			} else {
				m.Recv(buf.Slice(0, recv.Size()), recv, 1, 0, it)
			}
			m.Barrier()
		}
		if m.Rank() == 0 {
			per = (m.Now() - t0) / sim.Time(iters)
		}
	})
	return per
}

// AppScaLAPACK collects a 2D block-cyclic distributed matrix (Darray,
// the ScaLAPACK layout) from a 2x2 process grid onto rank 0, each piece
// arriving as packed contiguous data.
func AppScaLAPACK(n, nb int, strategy mpi.Strategy) sim.Time {
	cfg := cluster.Spec{Nodes: 2, GPUsPerNode: 2, RanksPerNode: 2, Tuning: &mpi.Tuning{Strategy: strategy}}.Config()
	cfg.GPU = bigGPU()
	cfg.PCIe = bigPCIe()
	w := mpi.NewWorld(cfg)
	attachTrace(w.Engine(), "app:scalapack")
	defer w.Close()
	gs := []int{n, n}
	dist := []datatype.Distrib{datatype.DistribCyclic, datatype.DistribCyclic}
	dargs := []int{nb, nb}
	ps := []int{2, 2}
	var dur sim.Time
	w.Run(func(m *mpi.Rank) {
		piece := datatype.Darray(4, m.Rank(), gs, dist, dargs, ps, datatype.OrderFortran, datatype.Float64)
		local := m.Malloc(layoutSpan(piece, 1))
		m.Barrier()
		t0 := m.Now()
		if m.Rank() == 0 {
			sink := m.Malloc(shapes.MatrixBytes(n))
			reqs := make([]*mpi.Request, 0, 3)
			var off int64
			for r := 1; r < 4; r++ {
				rp := datatype.Darray(4, r, gs, dist, dargs, ps, datatype.OrderFortran, datatype.Float64)
				contig := datatype.Contiguous(int(rp.Size()/8), datatype.Float64)
				reqs = append(reqs, m.Irecv(sink.Slice(off, rp.Size()), contig, 1, r, r))
				off += rp.Size()
			}
			for _, rq := range reqs {
				rq.Wait(m.Proc())
			}
			dur = m.Now() - t0
		} else {
			m.Send(local, piece, 1, 0, m.Rank())
		}
	})
	return dur
}

// WhatIfGPU is a forward-looking study beyond the paper: rerun the
// ping-pong on a Pascal-class GPU (≈4x the memory bandwidth, same PCIe).
// Inter-GPU transfers barely change — the protocols are wire-bound, so
// the engine's efficiency story survives a GPU generation — while
// intra-GPU transfers scale with DRAM.
func WhatIfGPU(n int) *Figure {
	f := &Figure{
		ID:     "whatif-gpu",
		Title:  fmt.Sprintf("GPU generation study: ping-pong N=%d, K40 vs P100", n),
		XLabel: "Gen", // 1 = K40, 2 = P100
		YLabel: "ms",
		Note:   "Beyond the paper: a 4x faster GPU leaves PCIe-bound transfers unchanged; only intra-GPU (1GPU) transfers speed up.",
	}
	v2 := f.NewSeries("V-2GPU")
	t2 := f.NewSeries("T-2GPU")
	v1 := f.NewSeries("V-1GPU")
	t1 := f.NewSeries("T-1GPU")
	gens := []gpu.Params{bigGPU(), bigPascal()}
	pts := pmap(len(gens), func(gen int) [4]float64 {
		params := gens[gen]
		run := func(topo Topology, dt *datatype.Datatype) float64 {
			cfg := topo.Spec().Config()
			cfg.GPU = params
			cfg.PCIe = bigPCIe()
			w := mpi.NewWorld(cfg)
			attachTrace(w.Engine(), fmt.Sprintf("whatif %s %s", topo, dt.Name()))
			defer w.Close()
			return pingPongOn(w, dt).Millis()
		}
		return [4]float64{
			run(TwoGPU, vMat(n)),
			run(TwoGPU, shapes.LowerTriangular(n)),
			run(OneGPU, vMat(n)),
			run(OneGPU, shapes.LowerTriangular(n)),
		}
	})
	for gen := range gens {
		x := float64(gen + 1)
		v2.Add(x, pts[gen][0])
		t2.Add(x, pts[gen][1])
		v1.Add(x, pts[gen][2])
		t1.Add(x, pts[gen][3])
	}
	return f
}

func bigPascal() gpu.Params {
	p := gpu.PascalP100()
	p.MemBytes = 6 << 30
	return p
}

// pingPongOn runs the standard warm ping-pong loop on a prebuilt world.
func pingPongOn(w *mpi.World, dt *datatype.Datatype) sim.Time {
	const iters = 3
	var rt sim.Time
	w.Run(func(m *mpi.Rank) {
		buf := m.Malloc(layoutSpan(dt, 1))
		m.Barrier()
		var t0 sim.Time
		for i := 0; i < iters+1; i++ {
			if i == 1 {
				t0 = m.Now()
			}
			if m.Rank() == 0 {
				m.Send(buf, dt, 1, 1, i)
				m.Recv(buf, dt, 1, 1, i+1000)
			} else {
				m.Recv(buf, dt, 1, 0, i)
				m.Send(buf, dt, 1, 0, i+1000)
			}
		}
		if m.Rank() == 0 {
			rt = (m.Now() - t0) / iters
		}
	})
	return rt
}

// Apps produces the application benchmark table: ours vs MVAPICH.
func Apps() *Figure {
	f := &Figure{
		ID:     "apps",
		Title:  "Application benchmarks (per iteration / operation)",
		XLabel: "App#",
		YLabel: "ms",
		Note:   "1 = SHOC halo exchange (N=4096, 2 GPUs); 2 = LAMMPS particle migration (1M particles, IB); 3 = ScaLAPACK block-cyclic collect (N=4096, 4 ranks).",
	}
	ours := f.NewSeries("ours")
	mv := f.NewSeries("MVAPICH")
	apps := []func(s mpi.Strategy) sim.Time{
		func(s mpi.Strategy) sim.Time { return AppHalo(4096, 3, s) },
		func(s mpi.Strategy) sim.Time { return AppParticles(1_000_000, 8, 3, s) },
		func(s mpi.Strategy) sim.Time { return AppScaLAPACK(4096, 64, s) },
	}
	vals := pmap(len(apps)*2, func(k int) float64 {
		var s mpi.Strategy
		if k%2 == 1 {
			s = &baseline.MVAPICHStrategy{}
		}
		return apps[k/2](s).Millis()
	})
	for i := range apps {
		x := float64(i + 1)
		ours.Add(x, vals[i*2])
		mv.Add(x, vals[i*2+1])
	}
	return f
}
