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
	w := mpi.NewWorld(bigConfig(cluster.TwoGPU().Tuned(tun)))
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
	w := mpi.NewWorld(bigConfig(cluster.TwoNode().Tuned(&mpi.Tuning{Strategy: strategy})))
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
	w := mpi.NewWorld(bigConfig(cluster.Spec{Nodes: 2, GPUsPerNode: 2, RanksPerNode: 2, Tuning: &mpi.Tuning{Strategy: strategy}}))
	attachTrace(w.Engine(), "app:scalapack")
	defer w.Close()
	gs := []int{n, n}
	dist := []datatype.Distrib{datatype.DistribCyclic, datatype.DistribCyclic}
	dargs := []int{nb, nb}
	ps := []int{2, 2}
	var dur sim.Time
	w.Run(func(m *mpi.Rank) {
		piece := datatype.Darray(4, m.Rank(), gs, dist, dargs, ps, datatype.OrderFortran, datatype.Float64)
		local := m.Malloc(piece.Span(1))
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
	gens := []gpu.Params{bigGPU(), bigPascal()}
	var cells []cell[int]
	for _, topo := range []Topology{TwoGPU, OneGPU} {
		for _, sh := range []matShape{shapeV, shapeT} {
			cells = append(cells, cell[int]{fmt.Sprintf("%s-%s", sh.label, topo), func(gen int) float64 {
				dt := sh.dt(n)
				cfg := bigConfig(topo.Spec())
				cfg.GPU = gens[gen-1]
				w := mpi.NewWorld(cfg)
				attachTrace(w.Engine(), fmt.Sprintf("whatif %s %s", topo, dt.Name()))
				defer w.Close()
				return pingPongOn(w, PingPongSpec{Dt0: dt, Count: 1}).Millis()
			}})
		}
	}
	return sweep(f, []int{1, 2}, cells...)
}

func bigPascal() gpu.Params {
	p := gpu.PascalP100()
	p.MemBytes = 6 << 30
	return p
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
	apps := []func(s mpi.Strategy) sim.Time{
		func(s mpi.Strategy) sim.Time { return AppHalo(4096, 3, s) },
		func(s mpi.Strategy) sim.Time { return AppParticles(1_000_000, 8, 3, s) },
		func(s mpi.Strategy) sim.Time { return AppScaLAPACK(4096, 64, s) },
	}
	return sweep(f, []int{1, 2, 3},
		cell[int]{"ours", func(app int) float64 { return apps[app-1](nil).Millis() }},
		cell[int]{"MVAPICH", func(app int) float64 { return apps[app-1](&baseline.MVAPICHStrategy{}).Millis() }})
}
