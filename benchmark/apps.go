package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/model"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/trace"
	"gpuddt/internal/workload"
)

// modelStats sums what model.Run reported over a repetition's arms.
type modelStats struct {
	events, msgs, sigChecks int64
	heapPeak                int
	stateBytesPerRank       int64    // largest arm
	hier, flat              modelArm // host cost by schedule family
}

type modelArm struct {
	events int64
	window time.Duration
}

// collModelledDriver runs the flyweight model: alltoall and allgather,
// each hierarchical and flat. One arm is one verified operation:
// model.Run checks every sampled message signature itself (a mismatch
// panics), and the two arms' sampled digests must agree. The model
// derives payloads from fixed seed bases, so -seed moves nothing here.
func collModelledDriver(toy bool) func(r *run) {
	nodes := 256
	if toy {
		nodes = 16
	}
	spec := cluster.ScaleModelled(nodes, 4, 4, 2, 1)
	block := shapes.SubMatrix(16, 8, 12)
	return func(r *run) {
		for ci, coll := range []string{"alltoall", "allgather"} {
			var first [32]byte
			for ai, arm := range []string{"hier", "flat"} {
				opt := model.Options{
					Spec: spec, Coll: coll, Flat: arm == "flat", Shards: 1,
					Dt: block, Count: 1, SampleRanks: 16,
					RecordSpans: r.lt != nil,
				}
				res, err := r.modelRun(opt)
				if r.tamper && ci == 0 && ai == 1 {
					res.Digest[0] ^= 1
				}
				if ai == 0 {
					first = res.Digest
				}
				name := coll + "." + arm
				r.check(err == nil && res.Digest == first, "%s: err=%v, digest %x vs %x", name, err, res.Digest[:4], first[:4])
				r.point(name, res.Time.Micros())
			}
			r.foldWord(binary.LittleEndian.Uint64(first[:]))
		}
	}
}

// modelRun is the timed window of one modelled arm. A panic inside the
// model (a signature mismatch, a duplicate block) is a failed
// operation, not a crashed benchmark.
func (r *run) modelRun(opt model.Options) (res model.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("model.Run panicked: %v", p)
		}
	}()
	t0 := time.Now()
	res, err = model.Run(opt)
	d := time.Since(t0)
	r.phase[phRun] += d
	ms := &r.model
	ms.events += res.Events
	ms.msgs += res.Messages
	ms.sigChecks += res.SigChecks
	ms.stateBytesPerRank = max(ms.stateBytesPerRank, res.MemPerRank(opt.Spec.Size()))
	if res.HeapPeak > ms.heapPeak {
		ms.heapPeak = res.HeapPeak
	}
	arm := &ms.hier
	if opt.Flat {
		arm = &ms.flat
	}
	arm.events += res.Events
	arm.window += d
	return res, err
}

// stencilDriver is the Jacobi-style proxy application: one 64-rank job
// of 3D halo exchange. internal/workload generates every cell from the
// seed and verifies every halo cell itself, so the whole workload.Run
// call is the window and the job is the one verified operation.
func stencilDriver(toy bool) func(r *run) {
	spec := cluster.Scale(16, 4, 4, 2)
	st := workload.Stencil{Procs: []int{4, 4, 4}, Box: []int{16, 16, 16}, Iters: 6}
	if toy {
		spec = cluster.Scale(2, 4, 4, 2)
		st = workload.Stencil{Procs: []int{2, 2, 2}, Box: []int{4, 4, 4}, Iters: 2}
	}
	ranks := make([]int, spec.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return func(r *run) {
		jobs := []workload.JobSpec{{Name: "stencil", W: st, Seed: r.seed, Ranks: ranks}}
		t0 := time.Now()
		res, rec, err := workload.Run(spec.Config(), jobs, nil, workload.Options{Trace: r.lt != nil})
		r.phase[phRun] += time.Since(t0)
		r.check(err == nil && len(res) == 1, "stencil: %v (%d results)", err, len(res))
		if err != nil || len(res) != 1 {
			return
		}
		r.point("stencil", res[0].ElapsedUs)
		if d, err := hex.DecodeString(res[0].Digest); err == nil && len(d) >= 8 {
			r.foldWord(binary.LittleEndian.Uint64(d))
		}
		if rec != nil {
			r.lt.haloSpans += workload.CountSpans(rec, "app.halo.face", "")
			r.lt.add(rec)
		}
	}
}

// overlapCounts is the irregular block distribution of the two ranks.
var overlapCounts = []int{3, 5}

// overlapShape is one sub-matrix size of overlap_icoll: the layout of
// the gathered buffer, and each rank's contribution as a generated
// image and its packed form. The payloads are a pure function of the
// seed, which is fixed for a process, so they are generated once, in
// the warm-up repetition; later repetitions fill with a copy.
type overlapShape struct {
	n      int
	dt     *datatype.Datatype
	displs []int // irregular blocks back to back, in extent units
	span   int64

	seed      uint64
	src, want [][]byte // by contributing rank
}

func newOverlapShape(n int) *overlapShape {
	sh := &overlapShape{n: n, dt: shapes.SubMatrix(n, n, 3*n/2)}
	ext := sh.dt.Extent()
	var cur int64
	for _, c := range overlapCounts {
		sh.displs = append(sh.displs, int(cur))
		cur += (layoutSpan(sh.dt, c) + ext - 1) / ext
	}
	sh.span = cur * ext
	return sh
}

// block is rank's slot of a gathered buffer.
func (sh *overlapShape) block(buf mem.Buffer, rank int) mem.Buffer {
	return buf.Slice(int64(sh.displs[rank])*sh.dt.Extent(), layoutSpan(sh.dt, overlapCounts[rank]))
}

func (sh *overlapShape) generate(seed uint64) {
	if sh.src != nil && sh.seed == seed {
		return
	}
	sh.seed, sh.src, sh.want = seed, nil, nil
	for rank, c := range overlapCounts {
		src := synth(seed+uint64(rank), layoutSpan(sh.dt, c))
		sh.src = append(sh.src, src)
		sh.want = append(sh.want, cpuPack(sh.dt, c, src))
	}
}

// overlapDriver runs an Iallgatherv of irregular sub-matrix blocks over
// two nodes while each rank's GPU runs compute kernels, and the same
// collective blocking as the reference. One arm is one verified
// operation: both ranks must hold both contributions afterwards.
func overlapDriver(toy bool) func(r *run) {
	sizes, kernels, kernelBytes := []int{256, 512}, 4, int64(64<<20)
	if toy {
		sizes, kernels, kernelBytes = []int{32}, 2, 1<<20
	}
	var all []*overlapShape
	var scratch []byte
	for _, n := range sizes {
		sh := newOverlapShape(n)
		all = append(all, sh)
		for _, c := range overlapCounts {
			if need := int64(c) * sh.dt.Size(); need > int64(len(scratch)) {
				scratch = make([]byte, need)
			}
		}
	}
	return func(r *run) {
		for si, sh := range all {
			r.owned(phFill, func() { sh.generate(r.seedFor(si * len(overlapCounts))) })
			for _, overlapped := range []bool{true, false} {
				r.overlapArm(sh, overlapped, kernels, kernelBytes, scratch)
			}
		}
	}
}

func (r *run) overlapArm(sh *overlapShape, overlapped bool, kernels int, kernelBytes int64, scratch []byte) {
	w, rec := r.newWorld(cluster.TwoNode().Config())
	bufs := make([]mem.Buffer, len(overlapCounts))
	r.runWorld(w, func(m *mpi.Rank) {
		me := m.Rank()
		buf := m.Malloc(sh.span)
		bufs[me] = buf
		r.owned(phFill, func() {
			clear(buf.Bytes()) // the peer's slot must not hold a stale copy
			copy(sh.block(buf, me).Bytes(), sh.src[me])
		})
		dev := m.Engine().Device()
		compute := func() {
			for k := 0; k < kernels; k++ {
				dev.Compute(m.Engine().Stream(), kernelBytes, 0).Await(m.Proc())
			}
		}
		if overlapped {
			req := m.Iallgatherv(buf, overlapCounts, sh.displs, sh.dt)
			compute()
			req.Wait(m.Proc())
		} else {
			m.Allgatherv(buf, overlapCounts, sh.displs, sh.dt)
			compute()
		}
	})
	makespan := w.Engine().Now().Micros()

	ok := true
	r.owned(phVerify, func() {
		for holder, buf := range bufs {
			for from, c := range overlapCounts {
				got := scratch[:int64(c)*sh.dt.Size()]
				datatype.NewConverter(sh.dt, c).Pack(got, sh.block(buf, from).Bytes())
				if r.tamper && overlapped && holder == 0 && from == 1 {
					got[0] ^= 1
				}
				ok = ok && bytes.Equal(got, sh.want[from])
			}
		}
	})
	if overlapped {
		name := fmt.Sprintf("n%d.overlapped", sh.n)
		r.check(ok, "%s: a rank holds a wrong block", name)
		r.point(name, makespan)
		r.owned(phVerify, func() {
			for _, img := range sh.want {
				r.fold(img)
			}
		})
		if rec != nil {
			r.lt.overlap[sh.n] = trace.ComputeOverlap(rec)
		}
	} else {
		name := fmt.Sprintf("n%d.blocking", sh.n)
		r.check(ok, "%s: a rank holds a wrong block", name)
		r.note(name, makespan) // the reference cost: mpi.overlap.blocking_us, not in virtual_us
	}
	r.closeWorld(w, rec)
}
