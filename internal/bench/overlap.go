package bench

import (
	"fmt"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
	"gpuddt/internal/trace"
)

// The overlap experiment drives the headline promise of nonblocking
// collectives: an Iallgatherv of irregular sub-matrix blocks crosses the
// two-node InfiniBand wire while each rank's GPU runs its own compute
// kernels, and trace-phase attribution measures how much of the wire
// time was actually hidden. The blocking variant runs the same
// collective and the same kernels back to back as the reference cost.

// OverlapResult is one measured point of the overlap experiment.
type OverlapResult struct {
	Blocking   sim.Time      // Allgatherv then kernels, serialized
	Overlapped sim.Time      // kernels while the Iallgatherv is in flight
	Attr       trace.Overlap // phase attribution of the overlapped run
}

// overlapCounts is the irregular block distribution of the two ranks.
var overlapCounts = []int{3, 5}

// vLayout packs irregular blocks back to back in extent units.
func vLayout(dt *datatype.Datatype, counts []int) (displs []int, span int64) {
	ext := dt.Extent()
	var cur int64
	displs = make([]int, len(counts))
	for r, c := range counts {
		displs[r] = int(cur)
		cur += (dt.Span(c) + ext - 1) / ext
	}
	return displs, cur * ext
}

// overlapRun executes one traced run and returns its makespan and
// phase attribution.
func overlapRun(n, kernels int, kernelBytes int64, overlapped bool) (sim.Time, trace.Overlap) {
	mode := "blocking"
	if overlapped {
		mode = "overlapped"
	}
	w := mpi.NewWorld(bigConfig(cluster.TwoNode()))
	defer w.Close()
	rec := attachTrace(w.Engine(), fmt.Sprintf("overlap n=%d %s", n, mode))
	if rec == nil {
		rec = sim.NewRecorder(w.Engine())
	}
	dt := shapes.SubMatrix(n, n, 3*n/2)
	displs, span := vLayout(dt, overlapCounts)
	w.Run(func(m *mpi.Rank) {
		me := m.Rank()
		buf := m.Malloc(span)
		mem.FillPattern(
			buf.Slice(int64(displs[me])*dt.Extent(), dt.Span(overlapCounts[me])),
			uint64(40+me))
		dev := m.Engine().Device()
		compute := func() {
			for k := 0; k < kernels; k++ {
				dev.Compute(m.Engine().Stream(), kernelBytes, 0).Await(m.Proc())
			}
		}
		if overlapped {
			req := m.Iallgatherv(buf, overlapCounts, displs, dt)
			compute()
			req.Wait(m.Proc())
		} else {
			m.Allgatherv(buf, overlapCounts, displs, dt)
			compute()
		}
	})
	return w.Engine().Now(), trace.ComputeOverlap(rec)
}

// OverlapColl measures the blocking and overlapped variants for one
// sub-matrix size.
func OverlapColl(n, kernels int, kernelBytes int64) OverlapResult {
	var res OverlapResult
	res.Blocking, _ = overlapRun(n, kernels, kernelBytes, false)
	res.Overlapped, res.Attr = overlapRun(n, kernels, kernelBytes, true)
	return res
}

// OverlapFigure sweeps the experiment over sub-matrix sizes. The hidden
// fraction comes straight from trace-phase attribution (wire intervals
// covered by "kernel.compute" intervals), not from comparing makespans.
func OverlapFigure(sizes []int) *Figure {
	f := &Figure{
		ID:     "overlap",
		Title:  "Iallgatherv hidden behind compute kernels (two nodes, IB)",
		XLabel: "submatrix n",
		YLabel: "us (hidden_pct in %)",
		Note:   "Nonblocking collective progress at channel granularity; hidden_pct = wire time covered by kernel.compute spans.",
	}
	blocking := f.NewSeries("blocking_us")
	overlapped := f.NewSeries("overlapped_us")
	hidden := f.NewSeries("hidden_pct")
	for _, n := range sizes {
		r := OverlapColl(n, 4, 64<<20)
		blocking.Add(float64(n), r.Blocking.Micros())
		overlapped.Add(float64(n), r.Overlapped.Micros())
		hidden.Add(float64(n), 100*r.Attr.HiddenFrac())
	}
	return f
}
