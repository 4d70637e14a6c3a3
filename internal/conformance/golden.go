package conformance

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"gpuddt/internal/baseline"
	"gpuddt/internal/bench"
	"gpuddt/internal/core"
	"gpuddt/internal/sim"
)

// GoldenPoint is one recorded (x, y) measurement. Virtual time is
// deterministic and encoding/json round-trips float64 exactly, so
// comparisons are exact — any difference is real drift.
type GoldenPoint struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// GoldenSeries is one recorded curve.
type GoldenSeries struct {
	Name   string        `json:"name"`
	Points []GoldenPoint `json:"points"`
}

// GoldenFigure is the checked-in expected result of one figure runner.
type GoldenFigure struct {
	ID     string         `json:"id"`
	YLabel string         `json:"ylabel"`
	Series []GoldenSeries `json:"series"`
}

// GoldenFromFigure flattens a bench figure into its golden form.
func GoldenFromFigure(f *bench.Figure) GoldenFigure {
	g := GoldenFigure{ID: f.ID, YLabel: f.YLabel}
	for _, s := range f.Series {
		gs := GoldenSeries{Name: s.Name}
		for _, p := range s.Points {
			gs.Points = append(gs.Points, GoldenPoint{X: p.X, Y: p.Y})
		}
		g.Series = append(g.Series, gs)
	}
	return g
}

func writeJSON(path string, v interface{}) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckFigure compares a figure runner's result against the golden file
// at path. With update set it regenerates the file instead (go test
// ./internal/bench -run TestGoldenFigures -update). A missing golden is
// an error unless updating, so new runners must record expectations.
func CheckFigure(path string, f *bench.Figure, update bool) error {
	got := GoldenFromFigure(f)
	if update {
		return writeJSON(path, got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden %s missing (run with -update to record): %w", path, err)
	}
	var want GoldenFigure
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden %s unreadable: %w", path, err)
	}
	if got.ID != want.ID {
		return fmt.Errorf("%s: figure ID %q, golden %q", path, got.ID, want.ID)
	}
	if len(got.Series) != len(want.Series) {
		return fmt.Errorf("%s: %d series, golden has %d", path, len(got.Series), len(want.Series))
	}
	for i, ws := range want.Series {
		gs := got.Series[i]
		if gs.Name != ws.Name {
			return fmt.Errorf("%s: series %d named %q, golden %q", path, i, gs.Name, ws.Name)
		}
		if len(gs.Points) != len(ws.Points) {
			return fmt.Errorf("%s: series %q has %d points, golden %d", path, ws.Name, len(gs.Points), len(ws.Points))
		}
		for j, wp := range ws.Points {
			gp := gs.Points[j]
			if gp.X != wp.X {
				return fmt.Errorf("%s: series %q point %d at x=%v, golden x=%v", path, ws.Name, j, gp.X, wp.X)
			}
			if gp.Y != wp.Y {
				return fmt.Errorf("%s: series %q x=%v drifted: y=%v, golden y=%v (%s) — "+
					"explain the timing change and refresh with -update, or fix the regression",
					path, ws.Name, wp.X, gp.Y, wp.Y, f.YLabel)
			}
		}
	}
	return nil
}

// GoldenTree is the layout fingerprint of one generated conformance
// case: byte counts, engine decompositions, and a content hash of the
// reference mapping. Drift means datatype flattening, DEV splitting or
// baseline vectorization changed behaviour.
type GoldenTree struct {
	Seed    uint64 `json:"seed"`
	Name    string `json:"name"`
	Count   int    `json:"count"`
	Packed  int64  `json:"packed"`
	Span    int64  `json:"span"`
	Blocks  int    `json:"blocks"`
	Segs    int    `json:"segs"`
	Units   int64  `json:"units"`
	Overlap bool   `json:"overlap"`
	Hash    string `json:"hash"`
}

// DEVUnits packs the tree once through the GPU engine and reports how
// many CUDA-DEV units the converter emitted at the given split size
// (zero when the vector fast path or zero size bypasses DEV entirely).
func (tr *Tree) DEVUnits(unitSize int64) int64 {
	total := tr.Total()
	if total == 0 {
		return 0
	}
	r := newGPURig(gpuOpts(unitSize))
	data := r.ctx.Malloc(0, tr.Span)
	dst := r.ctx.Malloc(0, total)
	r.eng.Spawn("pack", func(p *sim.Proc) {
		var pk core.Packer
		r.e.InitPacker(&pk, data, tr.Dt, tr.Count)
		var pos int64
		for !pk.Done() {
			n, fut := pk.PackWith(p, dst.Slice(pos, total-pos), nil)
			fut.Await(p)
			pos += n
		}
	})
	r.eng.Run()
	return r.e.ConvertedUnits()
}

// GoldenTreeFor computes the fingerprint of one seed.
func GoldenTreeFor(seed uint64) GoldenTree {
	tr := NewTree(seed)
	h := fnv.New64a()
	var b [8]byte
	for _, off := range tr.Map {
		binary.LittleEndian.PutUint64(b[:], uint64(off))
		h.Write(b[:])
	}
	h.Write(ReferencePack(tr.Map, pattern(tr.Span, tr.Seed)))
	return GoldenTree{
		Seed:    seed,
		Name:    tr.Dt.Name(),
		Count:   tr.Count,
		Packed:  tr.Total(),
		Span:    tr.Span,
		Blocks:  tr.Dt.NumBlocks(),
		Segs:    len(baseline.Vectorize(tr.Dt, tr.Count)),
		Units:   tr.DEVUnits(1024),
		Overlap: HasOverlap(tr.Map),
		Hash:    fmt.Sprintf("%016x", h.Sum64()),
	}
}

// CheckTrees compares the fingerprints of the given seeds against the
// golden file at path, or regenerates it with update set.
func CheckTrees(path string, seeds []uint64, update bool) error {
	got := make([]GoldenTree, len(seeds))
	for i, s := range seeds {
		got[i] = GoldenTreeFor(s)
	}
	if update {
		return writeJSON(path, got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden %s missing (run with -update to record): %w", path, err)
	}
	var want []GoldenTree
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("golden %s unreadable: %w", path, err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d trees, golden has %d", path, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: seed %d fingerprint drifted:\n  got  %+v\n  want %+v\n"+
				"datatype flattening, DEV splitting or vectorization changed — "+
				"explain the change and refresh with -update, or fix the regression",
				path, want[i].Seed, got[i], want[i])
		}
	}
	return nil
}
