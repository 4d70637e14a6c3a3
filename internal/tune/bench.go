package tune

import (
	"fmt"

	"gpuddt/internal/cluster"
	"gpuddt/internal/mpi"
)

// BenchPoint is one tuned-vs-default re-evaluation: the table entry's
// knobs replayed against the defaults on the same (spec, objective)
// pair, with the payload digests compared. This is what BENCH_tune.json
// commits — measurements from a fresh replay, not the numbers the
// search recorded, so a stale table shows up as a speedup regression.
type BenchPoint struct {
	Key         string  `json:"key"`
	Name        string  `json:"name"`
	Spec        string  `json:"spec"`
	Eager       int64   `json:"eager"`
	Frag        int64   `json:"frag"`
	Coll        string  `json:"coll"`
	DefaultUs   float64 `json:"default_us"`
	TunedUs     float64 `json:"tuned_us"`
	Speedup     float64 `json:"speedup"`
	DigestMatch bool    `json:"digest_match"`
}

// RunBench replays every point against the table: default run, then the
// table entry's tuning (a table miss replays the defaults and reports
// speedup 1).
func RunBench(tbl *Table, points []Point) ([]BenchPoint, error) {
	out := make([]BenchPoint, 0, len(points))
	for _, pt := range points {
		key := pt.Obj.Key(pt.Spec)
		def, err := pt.Obj.Run(pt.Spec, nil)
		if err != nil {
			return nil, fmt.Errorf("tune: bench %s default run: %w", key, err)
		}
		bp := BenchPoint{
			Key:       key.String(),
			Name:      pt.Obj.Name(),
			Spec:      pt.Spec.String(),
			DefaultUs: def.Us,
			TunedUs:   def.Us,
			Speedup:   1,
			// The default run trivially matches itself; overwritten below
			// when a table entry replays.
			DigestMatch: true,
		}
		if e, ok := tbl.Lookup(key); ok {
			tun, err := e.Tuning()
			if err != nil {
				return nil, fmt.Errorf("tune: bench %s: %w", key, err)
			}
			tuned, err := pt.Obj.Run(pt.Spec, tun)
			if err != nil {
				return nil, fmt.Errorf("tune: bench %s tuned run: %w", key, err)
			}
			bp.Eager, bp.Frag, bp.Coll = e.Eager, e.Frag, e.Coll
			bp.TunedUs = tuned.Us
			bp.DigestMatch = tuned.Digest == def.Digest
			if tuned.Us > 0 {
				bp.Speedup = def.Us / tuned.Us
			}
		}
		out = append(out, bp)
	}
	return out, nil
}

// CurvePoint is one in-network-reduction curve sample: the same Int64
// allreduce run under all three collective algorithm families on one
// fat-tree shape. DigestMatch asserts all three delivered bit-identical
// results (Int64 sum is exactly associative, so they must).
type CurvePoint struct {
	Spec        string  `json:"spec"`
	Nodes       int     `json:"nodes"`
	Oversub     int     `json:"oversub"`
	Elems       int     `json:"elems"`
	FlatUs      float64 `json:"flat_us"`
	HierUs      float64 `json:"hier_us"`
	SwitchUs    float64 `json:"switch_us"`
	DigestMatch bool    `json:"digest_match"`
}

// CurveShape names one fat-tree sample for RunCurve.
type CurveShape struct {
	Nodes, RPN, Oversub, Elems int
}

// DefaultCurveShapes sweeps the in-network selection boundary: the
// fully-provisioned tree (where host-side hierarchical reduce is
// competitive) through 4:1 and 8:1 oversubscription (where folding at
// the switch saves the contended uplinks).
func DefaultCurveShapes() []CurveShape {
	return []CurveShape{
		{Nodes: 8, RPN: 4, Oversub: 1, Elems: 1 << 15},
		{Nodes: 8, RPN: 4, Oversub: 4, Elems: 1 << 15},
		{Nodes: 16, RPN: 2, Oversub: 4, Elems: 1 << 15},
		{Nodes: 16, RPN: 4, Oversub: 8, Elems: 1 << 15},
	}
}

// RunCurve measures the flat / hierarchical / in-network allreduce
// families across the shapes.
func RunCurve(shapes []CurveShape) ([]CurvePoint, error) {
	modes := []mpi.CollMode{mpi.CollFlat, mpi.CollAuto, mpi.CollSwitch}
	out := make([]CurvePoint, 0, len(shapes))
	for _, sh := range shapes {
		spec := cluster.Scale(sh.Nodes, 1, sh.RPN, sh.Oversub)
		obj := Coll{Op: "allreduce", Elems: sh.Elems}
		cp := CurvePoint{
			Spec: spec.String(), Nodes: sh.Nodes, Oversub: sh.Oversub, Elems: sh.Elems,
			DigestMatch: true,
		}
		var ref string
		for _, mode := range modes {
			ev, err := obj.Run(spec, &mpi.Tuning{Collectives: mode})
			if err != nil {
				return nil, fmt.Errorf("tune: curve %s %s: %w", spec, mode, err)
			}
			switch mode {
			case mpi.CollFlat:
				cp.FlatUs = ev.Us
				ref = ev.Digest
			case mpi.CollAuto:
				cp.HierUs = ev.Us
			case mpi.CollSwitch:
				cp.SwitchUs = ev.Us
			}
			if ev.Digest != ref {
				cp.DigestMatch = false
			}
		}
		out = append(out, cp)
	}
	return out, nil
}
