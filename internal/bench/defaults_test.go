package bench_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gpuddt/internal/bench"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
	"gpuddt/internal/workload"
)

// gridMargin is how much faster than the defaults a grid candidate may
// be, as (default − best) / default, before a key needs a listed reason.
const gridMargin = 0.06

// gridExceptions are the keys where a candidate still beats the
// defaults by more than the margin, each with its reason.
var gridExceptions = map[string]string{
	"flat/1M/vector": fragReason,
	"fat4/1M/vector": fragReason,
}

const fragReason = "a 256 KiB fragment pipelines a 1 MiB vector ping-pong " +
	"34-36 % faster than DefaultFragBytes (1 MiB), which the paper-figure " +
	"ping-pongs run on; the fragment default is settled together with the " +
	"per-layer cost estimate and the fidelity pins (ROADMAP)"

// gridEval is one deterministic measurement: virtual time and a payload
// digest.
type gridEval struct {
	us     float64
	digest [32]byte
}

// gridPoint is one machine and traffic pattern, keyed by topology
// class, message-size class and datatype class.
type gridPoint struct {
	key  string
	spec cluster.Spec
	coll bool // searches the collective family instead of eager × frag
	run  func(cluster.Spec) (gridEval, error)

	// retired is the best time the in-network mode that used to be a
	// candidate (CollSwitch) reached here, 0 where it was not one: the
	// defaults must hold against it too.
	retired float64
}

// TestDefaultsAgainstTheGrid runs every point under the default tuning
// and under each candidate of the grid — eager threshold × pipeline
// fragment for the point-to-point and application points, the
// collective family for the reductions — and fails when a candidate
// changes the payload, or beats the defaults by more than gridMargin on
// a key gridExceptions does not list. It also fails when a listed key
// no longer needs its exception.
func TestDefaultsAgainstTheGrid(t *testing.T) {
	for _, pt := range gridPoints() {
		def, err := pt.run(pt.spec)
		if err != nil {
			t.Fatalf("%s default run: %v", pt.key, err)
		}
		best, bestName := def.us, "defaults"
		for _, c := range gridCandidates(pt.coll) {
			ev, err := pt.run(pt.spec.Tuned(c.tun))
			if err != nil {
				t.Fatalf("%s %s: %v", pt.key, c.name, err)
			}
			if ev.digest != def.digest {
				t.Fatalf("%s %s: the payload digest differs from the defaults'", pt.key, c.name)
			}
			if ev.us < best {
				best, bestName = ev.us, c.name
			}
		}
		if pt.retired > 0 && pt.retired < best {
			best, bestName = pt.retired, "the retired CollSwitch"
		}
		gain := (def.us - best) / def.us
		t.Logf("%-22s %-20s default %12.6f us, best %12.6f us (%s), gain %6.2f %%",
			pt.key, pt.spec, def.us, best, bestName, 100*gain)
		reason, listed := gridExceptions[pt.key]
		switch {
		case gain > gridMargin && !listed:
			t.Errorf("%s: %s beats the defaults by %.2f %% (%.3f -> %.3f us), more than the %.0f %% margin",
				pt.key, bestName, 100*gain, def.us, best, 100*gridMargin)
		case gain <= gridMargin && listed:
			t.Errorf("%s: listed as an exception (%s), but the best candidate gains only %.2f %%", pt.key, reason, 100*gain)
		}
	}
}

// gridCandidate is one tuning of the grid.
type gridCandidate struct {
	name string
	tun  *mpi.Tuning
}

// gridCandidates is the grid for one kind of point: eager thresholds
// around the 64 KiB default (0 forces rendezvous) × fragments at and
// below the 1 MiB default, or the two collective families.
func gridCandidates(coll bool) []gridCandidate {
	if coll {
		return []gridCandidate{
			{"auto", &mpi.Tuning{Collectives: mpi.CollAuto}},
			{"flat", &mpi.Tuning{Collectives: mpi.CollFlat}},
		}
	}
	var out []gridCandidate
	for _, eager := range []int64{0, 16 << 10, 64 << 10, 256 << 10} {
		for _, frag := range []int64{256 << 10, 1 << 20} {
			out = append(out, gridCandidate{
				name: fmt.Sprintf("eager=%d frag=%d", eager, frag),
				tun:  &mpi.Tuning{Eager: mpi.Eager(eager), FragBytes: frag},
			})
		}
	}
	return out
}

// gridPoints are point-to-point messages on the paper's SMP and
// two-node machines and a cross-leaf fat-tree path, reductions on
// tapered and oversubscribed fat trees, and one application family.
func gridPoints() []gridPoint {
	vec16K := shapes.SubMatrix(16, 128, 192) // 16 KiB packed vector rows
	vec1M := shapes.SubMatrix(128, 1024, 1536)
	fat := cluster.Scale(16, 1, 1, 4) // rank 0 -> 15 crosses the spine tier
	return []gridPoint{
		{key: "smp/64K/vector", spec: cluster.OneGPU(), run: p2pRun(vec16K)},
		{key: "smp/1M/vector", spec: cluster.OneGPU(), run: p2pRun(vec1M)},
		{key: "flat/64K/contig", spec: cluster.TwoNode(), run: p2pRun(datatype.Contiguous(2048, datatype.Int64))},
		{key: "flat/1M/vector", spec: cluster.TwoNode(), run: p2pRun(vec1M)},
		{key: "flat/16M/contig", spec: cluster.TwoNode(), run: p2pRun(datatype.Contiguous(1<<20, datatype.Int64))},
		{key: "fat4/1M/vector", spec: fat, run: p2pRun(vec1M)},
		{key: "fat4/1M/coll:allreduce", spec: cluster.Scale(16, 2, 2, 4), coll: true, run: reductionRun(true, 1<<15), retired: 432.583994},
		{key: "fat4/1M/coll:reduce", spec: cluster.Scale(16, 2, 2, 4), coll: true, run: reductionRun(false, 1<<15), retired: 409.638661},
		{key: "fat1/1M/coll:allreduce", spec: cluster.Scale(8, 2, 2, 1), coll: true, run: reductionRun(true, 1<<15), retired: 299.561996},
		// scalebench's reduce geometry: 4096 Int64 on a 2:1 fat tree.
		{key: "fat2/64K/coll:reduce", spec: cluster.Scale(8, 4, 4, 2), coll: true, run: reductionRun(false, 4096), retired: 73.381989},
		{key: "fat4/app/app:ml-ring", spec: cluster.Scale(4, 4, 4, 4), run: appRun("ml-ring", 0xA5)},
	}
}

// p2pRun measures one message of dt from rank 0 to the last rank; on
// the fat-tree spec that path crosses the spine tier.
func p2pRun(dt *datatype.Datatype) func(cluster.Spec) (gridEval, error) {
	return func(spec cluster.Spec) (gridEval, error) {
		w := mpi.NewWorld(spec.Config())
		defer w.Close()
		last := w.Size() - 1
		var img []byte
		w.Run(func(m *mpi.Rank) {
			switch m.Rank() {
			case 0:
				buf := m.Malloc(dt.Extent())
				mem.FillPattern(buf, 0xD7)
				m.Send(buf, dt, 1, last, 1)
			case last:
				buf := m.Malloc(dt.Extent())
				m.Recv(buf, dt, 1, 0, 1)
				// Only the selected bytes: the gaps are untouched memory.
				img = datatype.PackImage(dt, 1, buf.Bytes())
			}
		})
		return gridEval{us: virtualUs(w), digest: sha256.Sum256(img)}, nil
	}
}

// reductionRun measures a world-wide Int64 sum of elems per rank from
// host buffers, a Reduce to the last rank or an Allreduce. Int64 sums
// are exact on every algorithm, so every candidate's digest must agree.
func reductionRun(all bool, elems int) func(cluster.Spec) (gridEval, error) {
	dt := datatype.Contiguous(elems, datatype.Int64)
	return func(spec cluster.Spec) (gridEval, error) {
		w := mpi.NewWorld(spec.Config())
		defer w.Close()
		root := w.Size() - 1
		imgs := make([][]byte, w.Size())
		w.Run(func(m *mpi.Rank) {
			sendBuf := m.MallocHost(dt.Size())
			mem.FillPattern(sendBuf, uint64(0xC0+m.Rank()))
			keep := all || m.Rank() == root
			var recvBuf mem.Buffer
			if keep {
				recvBuf = m.MallocHost(dt.Size())
			}
			if all {
				m.Allreduce(sendBuf, recvBuf, dt, 1, mpi.OpSum)
			} else {
				m.Reduce(sendBuf, recvBuf, dt, 1, mpi.OpSum, root)
			}
			if keep {
				imgs[m.Rank()] = append([]byte(nil), recvBuf.Bytes()...)
			}
		})
		h := sha256.New()
		for _, img := range imgs {
			h.Write(img)
		}
		var ev gridEval
		ev.us = virtualUs(w)
		h.Sum(ev.digest[:0])
		return ev, nil
	}
}

// appRun measures one BENCH_apps family as a single job owning the
// whole machine.
func appRun(family string, seed uint64) func(cluster.Spec) (gridEval, error) {
	return func(spec cluster.Spec) (gridEval, error) {
		wl, err := bench.AppWorkload(family, spec.Size())
		if err != nil {
			return gridEval{}, err
		}
		all := make([]int, spec.Size())
		for i := range all {
			all[i] = i
		}
		jobs := []workload.JobSpec{{Name: family, W: wl, Seed: seed, Ranks: all}}
		res, _, err := workload.Run(spec.Config(), jobs, nil, workload.Options{})
		if err != nil {
			return gridEval{}, err
		}
		return gridEval{us: res[0].ElapsedUs, digest: sha256.Sum256([]byte(res[0].Digest))}, nil
	}
}

func virtualUs(w *mpi.World) float64 {
	return float64(w.Engine().Now()) / float64(sim.Microsecond)
}
