package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"gpuddt/internal/bench"
	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
	"gpuddt/internal/workload"
)

// Kind selects which knob dimensions a search explores for an
// objective: protocol geometry for point-to-point traffic, the
// algorithm family for collectives, the eager threshold for whole
// applications.
type Kind int

const (
	// KindP2P searches eager × frag.
	KindP2P Kind = iota

	// KindColl searches the collective algorithm family.
	KindColl

	// KindApp searches the eager threshold under a whole workload.
	KindApp
)

// Eval is one deterministic measurement: virtual time plus a payload
// digest. Two runs of the same (spec, tuning, objective) produce
// byte-identical Evals — the determinism gate runs the whole tuner
// twice and compares tables.
type Eval struct {
	Us     float64
	Digest string
}

// Objective measures one traffic pattern on one machine under a
// candidate tuning (nil = defaults). Implementations must be pure:
// same inputs, same Eval.
type Objective interface {
	Name() string
	Kind() Kind
	Key(spec cluster.Spec) Key
	Run(spec cluster.Spec, tun *mpi.Tuning) (Eval, error)
}

func digestBytes(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// P2P measures a single rendezvous-or-eager message of (Dt, Count)
// from rank 0 to the last rank — on a fat-tree spec that is a
// cross-leaf path, so the tuned geometry reflects spine congestion.
type P2P struct {
	Dt    *datatype.Datatype
	Count int
}

func (o P2P) Kind() Kind { return KindP2P }

func (o P2P) bytes() int64 { return int64(o.Count) * o.Dt.Size() }

func (o P2P) Name() string {
	return fmt.Sprintf("p2p/%s x%d (%s)", o.Dt.Name(), o.Count, SizeClass(o.bytes()))
}

func (o P2P) Key(spec cluster.Spec) Key {
	return Key{Topo: spec.TopoClass(), Size: SizeClass(o.bytes()), DT: DTClass(o.Dt)}
}

func (o P2P) Run(spec cluster.Spec, tun *mpi.Tuning) (Eval, error) {
	w := mpi.NewWorld(spec.Tuned(tun).Config())
	last := w.Size() - 1
	span := int64(o.Count) * o.Dt.Extent()
	var img []byte
	w.Run(func(m *mpi.Rank) {
		switch m.Rank() {
		case 0:
			buf := m.Malloc(span)
			mem.FillPattern(buf, 0xD7)
			m.Send(buf, o.Dt, o.Count, last, 1)
		case last:
			buf := m.Malloc(span)
			m.Recv(buf, o.Dt, o.Count, 0, 1)
			// Digest only the datatype-selected bytes: the gaps are
			// untouched memory, which mem's slab recycling leaves
			// unspecified between worlds.
			img = datatype.PackImage(o.Dt, o.Count, buf.Bytes())
		}
	})
	ev := Eval{
		Us:     float64(w.Engine().Now()) / float64(sim.Microsecond),
		Digest: digestBytes(img),
	}
	w.Close()
	return ev, nil
}

// Coll measures a world-wide reduction of Elems Int64 per rank (exactly
// associative, so the flat, hierarchical and in-network algorithms are
// all bit-identical and the digest gate is meaningful).
type Coll struct {
	Op    string // "reduce" or "allreduce"
	Elems int
}

func (o Coll) Kind() Kind { return KindColl }

func (o Coll) bytes() int64 { return int64(o.Elems) * 8 }

func (o Coll) Name() string {
	return fmt.Sprintf("coll/%s %d elems (%s)", o.Op, o.Elems, SizeClass(o.bytes()))
}

func (o Coll) Key(spec cluster.Spec) Key {
	return Key{Topo: spec.TopoClass(), Size: SizeClass(o.bytes()), DT: "coll:" + o.Op}
}

func (o Coll) Run(spec cluster.Spec, tun *mpi.Tuning) (Eval, error) {
	dt := datatype.Contiguous(o.Elems, datatype.Int64)
	w := mpi.NewWorld(spec.Tuned(tun).Config())
	size := w.Size()
	root := size - 1
	imgs := make([][]byte, size)
	w.Run(func(m *mpi.Rank) {
		sendBuf := m.MallocHost(dt.Size())
		mem.FillPattern(sendBuf, uint64(0xC0+m.Rank()))
		switch o.Op {
		case "reduce":
			var recvBuf mem.Buffer
			if m.Rank() == root {
				recvBuf = m.MallocHost(dt.Size())
			}
			m.Reduce(sendBuf, recvBuf, dt, 1, mpi.OpSum, root)
			if m.Rank() == root {
				imgs[m.Rank()] = append([]byte(nil), recvBuf.Bytes()...)
			}
		case "allreduce":
			recvBuf := m.MallocHost(dt.Size())
			m.Allreduce(sendBuf, recvBuf, dt, 1, mpi.OpSum)
			imgs[m.Rank()] = append([]byte(nil), recvBuf.Bytes()...)
		default:
			panic(fmt.Sprintf("tune: unknown collective op %q", o.Op))
		}
	})
	ev := Eval{
		Us:     float64(w.Engine().Now()) / float64(sim.Microsecond),
		Digest: digestBytes(imgs...),
	}
	w.Close()
	return ev, nil
}

// App measures one committed application family (bench.AppWorkload —
// the exact configurations behind BENCH_apps.json) as a single job
// owning the spec's whole cluster, which is how the roadmap's
// "BENCH_apps.json as a tuning objective" lands: the tuner minimizes
// the same elapsed time the app benchmark reports.
type App struct {
	Family string
	Seed   uint64
}

func (o App) Kind() Kind { return KindApp }

func (o App) Name() string { return "app/" + o.Family }

func (o App) Key(spec cluster.Spec) Key {
	return Key{Topo: spec.TopoClass(), Size: "app", DT: "app:" + o.Family}
}

func (o App) Run(spec cluster.Spec, tun *mpi.Tuning) (Eval, error) {
	ranks := spec.Size()
	w, err := bench.AppWorkload(o.Family, ranks)
	if err != nil {
		return Eval{}, err
	}
	all := make([]int, ranks)
	for i := range all {
		all[i] = i
	}
	jobs := []workload.JobSpec{{Name: o.Family, W: w, Seed: o.Seed, Ranks: all}}
	res, _, err := workload.Run(spec.Tuned(tun).Config(), jobs, nil, workload.Options{})
	if err != nil {
		return Eval{}, err
	}
	return Eval{Us: res[0].ElapsedUs, Digest: res[0].Digest}, nil
}
