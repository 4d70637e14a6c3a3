package tune

import (
	"fmt"
	"strings"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
)

// Space is the knob grid the tuner explores. Which dimensions apply
// depends on the objective kind (see Kind); the grid is exhaustive, so
// determinism needs no seed beyond fixed iteration order — Seed is
// recorded in the table purely to tie it to the workload seeds used by
// the app objectives.
type Space struct {
	Eager []int64  `json:"eager"`
	Frag  []int64  `json:"frag"`
	Coll  []string `json:"coll"`
}

// String canonically encodes the space for the table header.
func (s Space) String() string {
	var b strings.Builder
	b.WriteString("eager=")
	for i, v := range s.Eager {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(";frag=")
	for i, v := range s.Frag {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteString(";coll=" + strings.Join(s.Coll, ","))
	return b.String()
}

// DefaultSpace is the committed-table grid: eager thresholds around the
// 64 KiB default (including the 0 force-rendezvous sentinel), fragment
// sizes at and below the 1 MiB default, and all three collective
// algorithm families.
func DefaultSpace() Space {
	return Space{
		Eager: []int64{0, 16 << 10, 64 << 10, 256 << 10},
		Frag:  []int64{256 << 10, 1 << 20},
		Coll:  []string{"auto", "flat", "switch"},
	}
}

// defaultEntry holds the knobs a world resolves with no tuning, so a
// table entry is meaningful even when no candidate beat them.
var defaultEntry = Entry{Eager: mpi.DefaultEager, Frag: mpi.DefaultFragBytes, Coll: "auto"}

// candidates enumerates the grid for an objective kind, in the fixed
// order ties are broken in (first strictly-better candidate wins).
func candidates(kind Kind, s Space) []Entry {
	def := defaultEntry
	var out []Entry
	switch kind {
	case KindP2P:
		for _, e := range s.Eager {
			for _, f := range s.Frag {
				out = append(out, Entry{Eager: e, Frag: f, Coll: def.Coll})
			}
		}
	case KindColl:
		for _, c := range s.Coll {
			out = append(out, Entry{Eager: def.Eager, Frag: def.Frag, Coll: c})
		}
	case KindApp:
		for _, e := range s.Eager {
			out = append(out, Entry{Eager: e, Frag: def.Frag, Coll: def.Coll})
		}
	}
	return out
}

// Point is one (machine, traffic) pair the tuner measures.
type Point struct {
	Spec cluster.Spec
	Obj  Objective
}

// Config is a tuner run.
type Config struct {
	Space  Space
	Points []Point
	Seed   uint64
}

// Run searches the space at every point and returns the sealed table.
// Every candidate is digest-verified against the default run: a tuning
// that changes the delivered payload is a bug, not a speedup, and
// aborts the search.
func Run(cfg Config) (*Table, error) {
	tbl := &Table{
		Version: TableVersion,
		Seed:    cfg.Seed,
		Space:   cfg.Space.String(),
		Entries: make(map[string]Entry, len(cfg.Points)),
	}
	for _, pt := range cfg.Points {
		key := pt.Obj.Key(pt.Spec).String()
		if _, dup := tbl.Entries[key]; dup {
			return nil, fmt.Errorf("tune: duplicate key %s in point set", key)
		}
		def, err := pt.Obj.Run(pt.Spec, nil)
		if err != nil {
			return nil, fmt.Errorf("tune: %s default run: %w", key, err)
		}
		best := defaultEntry
		bestUs := def.Us
		for _, cand := range candidates(pt.Obj.Kind(), cfg.Space) {
			tun, err := cand.Tuning()
			if err != nil {
				return nil, err
			}
			ev, err := pt.Obj.Run(pt.Spec, tun)
			if err != nil {
				return nil, fmt.Errorf("tune: %s candidate %+v: %w", key, cand, err)
			}
			if ev.Digest != def.Digest {
				return nil, fmt.Errorf("tune: %s candidate %+v changed the payload digest", key, cand)
			}
			if ev.Us < bestUs {
				bestUs = ev.Us
				best = cand
			}
		}
		best.DefaultUs, best.TunedUs = def.Us, bestUs
		tbl.Entries[key] = best
	}
	tbl.Seal()
	return tbl, nil
}

// DefaultPoints is the committed-table point set: point-to-point
// messages on the paper's SMP and two-node machines plus a cross-leaf
// fat-tree path, reductions on taper and oversubscribed fat trees (the
// in-network selection points), and one committed application family.
func DefaultPoints(seed uint64) []Point {
	vec16K := shapes.SubMatrix(16, 128, 192) // 16 KiB packed vector rows
	vec1M := shapes.SubMatrix(128, 1024, 1536)
	fat := cluster.Scale(16, 1, 1, 4) // rank 0 -> 15 crosses the spine tier
	return []Point{
		{Spec: cluster.OneGPU(), Obj: P2P{Dt: vec16K, Count: 1}},
		{Spec: cluster.OneGPU(), Obj: P2P{Dt: vec1M, Count: 1}},
		{Spec: cluster.TwoNode(), Obj: P2P{Dt: datatype.Contiguous(2048, datatype.Int64), Count: 1}},
		{Spec: cluster.TwoNode(), Obj: P2P{Dt: vec1M, Count: 1}},
		{Spec: cluster.TwoNode(), Obj: P2P{Dt: datatype.Contiguous(1<<20, datatype.Int64), Count: 1}},
		{Spec: fat, Obj: P2P{Dt: vec1M, Count: 1}},
		{Spec: cluster.Scale(16, 2, 2, 4), Obj: Coll{Op: "allreduce", Elems: 1 << 15}},
		{Spec: cluster.Scale(16, 2, 2, 4), Obj: Coll{Op: "reduce", Elems: 1 << 15}},
		{Spec: cluster.Scale(8, 2, 2, 1), Obj: Coll{Op: "allreduce", Elems: 1 << 15}},
		// scalebench's reduce geometry (4096 Int64 on a 2:1 fat tree), so
		// tunebench replays a tuned arm of that sweep point.
		{Spec: cluster.Scale(8, 4, 4, 2), Obj: Coll{Op: "reduce", Elems: 4096}},
		{Spec: cluster.Scale(4, 4, 4, 4), Obj: App{Family: "ml-ring", Seed: seed}},
	}
}

// QuickPoints is the CI smoke set: small enough to run the whole tuner
// twice for the determinism gate, while still covering all three
// objective kinds and an oversubscribed collective point.
func QuickPoints(seed uint64) []Point {
	return []Point{
		{Spec: cluster.TwoNode(), Obj: P2P{Dt: shapes.SubMatrix(16, 128, 192), Count: 1}},
		{Spec: cluster.Scale(8, 2, 2, 4), Obj: Coll{Op: "allreduce", Elems: 1 << 14}},
		{Spec: cluster.Scale(2, 2, 2, 4), Obj: App{Family: "checkpoint", Seed: seed}},
	}
}

// QuickSpace trims the grid for the smoke set.
func QuickSpace() Space {
	return Space{
		Eager: []int64{0, 64 << 10},
		Frag:  []int64{256 << 10, 1 << 20},
		Coll:  []string{"auto", "flat", "switch"},
	}
}
