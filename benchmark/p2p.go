package main

import (
	"bytes"

	"gpuddt/internal/baseline"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// p2pPoint is one ping-pong measurement of the p2p_* workloads.
type p2pPoint struct {
	name   string
	spec   cluster.Spec
	dt     *datatype.Datatype
	onHost bool // data in host memory (the CPU converter path)
	iters  int  // measured round trips, after one warm-up round trip
	tuning *mpi.Tuning
}

// p2pPayload is a point's generated buffer image and its packed form.
// Both are a pure function of the seed, which is fixed for a process,
// so they are generated once, in the warm-up repetition; later
// repetitions fill the simulated buffer with a copy.
type p2pPayload struct {
	seed      uint64
	src, want []byte
}

func (pl *p2pPayload) generate(pt *p2pPoint, seed uint64) {
	if pl.src != nil && pl.seed == seed {
		return
	}
	pl.seed = seed
	pl.src = synth(seed, layoutSpan(pt.dt, 1))
	pl.want = cpuPack(pt.dt, 1, pl.src)
}

var p2pTopos = []struct {
	name string
	spec cluster.Spec
}{
	{"1gpu", cluster.OneGPU()},
	{"2gpu", cluster.TwoGPU()},
	{"ib", cluster.TwoNode()},
}

func p2pBWSize(toy bool) int {
	if toy {
		return 128 // T is 66 KB: just past the eager limit, like the real shape
	}
	return 1024
}

// p2pContig is the contiguous 2-GPU ping-pong of the same footprint as
// V: the PCIe rate the paper's Fig. 9 normalises V and T by.
func p2pContig(toy bool) *p2pPoint {
	return &p2pPoint{name: "C.2gpu", spec: cluster.TwoGPU(), dt: shapes.FullMatrix(p2pBWSize(toy)), iters: 3}
}

// p2pBWPoints is the p2p_bw shape: 8 MiB V and 4 MiB T on the paper's
// three configurations, T under the MVAPICH-style baseline, and the
// transpose stress test.
func p2pBWPoints(toy bool) []p2pPoint {
	n, tr := p2pBWSize(toy), 512
	if toy {
		tr = 32
	}
	v := shapes.SubMatrix(n, n, 3*n/2)
	t := shapes.LowerTriangular(n)
	var pts []p2pPoint
	for _, tp := range p2pTopos {
		pts = append(pts,
			p2pPoint{name: "V." + tp.name, spec: tp.spec, dt: v, iters: 3},
			p2pPoint{name: "T." + tp.name, spec: tp.spec, dt: t, iters: 3})
	}
	return append(pts,
		p2pPoint{name: "T.2gpu.mvapich", spec: cluster.TwoGPU(), dt: t, iters: 3,
			tuning: &mpi.Tuning{Strategy: &baseline.MVAPICHStrategy{}}},
		p2pPoint{name: "TR.2gpu", spec: cluster.TwoGPU(), dt: shapes.Transpose(tr), iters: 3})
}

// p2pLatPoints is the p2p_lat shape: 1 KiB and 16 KiB eager messages
// and a 145 KiB message just over the eager limit (a one-fragment
// rendezvous), from device memory on all three configurations and from
// host memory where a wire is crossed.
func p2pLatPoints(toy bool) []p2pPoint {
	iters := 500
	if toy {
		iters = 4
	}
	dts := []struct {
		name string
		dt   *datatype.Datatype
	}{
		{"V1K", shapes.SubMatrix(16, 8, 12)},
		{"T16K", shapes.LowerTriangular(64)},
		{"T145K", shapes.LowerTriangular(192)},
	}
	var pts []p2pPoint
	for _, tp := range p2pTopos {
		for _, d := range dts {
			pts = append(pts, p2pPoint{name: d.name + "." + tp.name, spec: tp.spec, dt: d.dt, iters: iters})
		}
	}
	for _, tp := range p2pTopos[1:] {
		pts = append(pts, p2pPoint{name: "T16K.host." + tp.name, spec: tp.spec, dt: dts[1].dt, onHost: true, iters: iters})
	}
	return pts
}

// pingPongDriver keeps the payloads and one packed-image scratch buffer
// across repetitions, so the benchmark's own allocations stay out of
// allocs_per_op and alloc_mb_per_op.
func pingPongDriver(pts []p2pPoint, fidelity *p2pPoint) func(r *run) {
	var size int64
	for _, pt := range pts {
		size = max(size, pt.dt.Size())
	}
	if fidelity != nil {
		size = max(size, fidelity.dt.Size())
	}
	got := make([]byte, size)
	payloads := make([]p2pPayload, len(pts)+1)
	return func(r *run) {
		for i := range pts {
			r.pingPong(&pts[i], &payloads[i], r.seedFor(i), got)
		}
		if r.lt == nil || fidelity == nil {
			return
		}
		// The traced pass also measures the contiguous rate Fig. 9
		// normalises by, in a run of its own so that the reference
		// adds nothing to the workload's counts.
		ref := &run{seed: r.seed}
		ref.pingPong(fidelity, &payloads[len(pts)], r.seedFor(len(pts)), got)
		us := func(name string) float64 { return r.pointUs[name] }
		// Achieved bandwidth as a share of the contiguous rate.
		frac := func(pt *p2pPoint) float64 {
			return (float64(pt.dt.Size()) / us(pt.name)) / (float64(fidelity.dt.Size()) / ref.pointUs[fidelity.name])
		}
		r.lt.fidelity = map[string]float64{
			"fidelity.pcie_frac_V":     frac(findPoint(pts, "V.2gpu")),
			"fidelity.pcie_frac_T":     frac(findPoint(pts, "T.2gpu")),
			"fidelity.gap_1gpu_2gpu_x": us("V.2gpu") / us("V.1gpu"),
			"fidelity.mvapich_gap_x":   us("T.2gpu.mvapich") / us("T.2gpu"),
		}
	}
}

func findPoint(pts []p2pPoint, name string) *p2pPoint {
	for i := range pts {
		if pts[i].name == name {
			return &pts[i]
		}
	}
	panic("benchmark: no ping-pong point " + name)
}

// pingPong bounces one message of pt.dt between two ranks. Every
// message is one verified operation: the receiver clears its buffer
// before the receive, so a stale or partial delivery cannot pass, and
// afterwards compares the CPU-converter pack of what arrived with the
// pack of the bytes rank 0 generated.
func (r *run) pingPong(pt *p2pPoint, pl *p2pPayload, seed uint64, got []byte) {
	r.owned(phFill, func() { pl.generate(pt, seed) })
	w, rec := r.newWorld(pt.spec.Tuned(pt.tuning).Config())
	span := layoutSpan(pt.dt, 1)
	conv := datatype.NewConverter(pt.dt, 1)
	want, got := pl.want, got[:conv.Total()]
	tamper := r.tamper
	var rt sim.Time
	window := r.runWorld(w, func(m *mpi.Rank) {
		me, peer := m.Rank(), 1-m.Rank()
		var buf mem.Buffer
		if pt.onHost {
			buf = m.MallocHost(span)
		} else {
			buf = m.Malloc(span)
		}
		if me == 0 {
			r.owned(phFill, func() { copy(buf.Bytes(), pl.src) })
		}
		m.Barrier()
		recv := func(tag int) {
			r.owned(phFill, func() { clear(buf.Bytes()) })
			m.Recv(buf, pt.dt, 1, peer, tag)
			r.owned(phVerify, func() {
				conv.Rewind()
				conv.Pack(got, buf.Bytes())
				if tamper {
					got[0] ^= 1
					tamper = false
				}
				r.attempted++
				if !bytes.Equal(got, want) {
					r.fail("%s: rank %d received a wrong image (tag %d)", pt.name, me, tag)
				}
			})
		}
		var t0 sim.Time
		for i := 0; i <= pt.iters; i++ {
			if i == 1 {
				t0 = m.Now()
			}
			if me == 0 {
				m.Send(buf, pt.dt, 1, peer, i)
				recv(i + 1000)
			} else {
				recv(i)
				m.Send(buf, pt.dt, 1, peer, i+1000)
			}
		}
		if me == 0 {
			rt = (m.Now() - t0) / sim.Time(pt.iters)
		}
	})
	if pt.tuning != nil {
		r.mvapichWindow += window
	}
	r.point(pt.name, rt.Micros())
	r.owned(phVerify, func() { r.fold(want) })
	r.closeWorld(w, rec)
}
