package tune

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/shapes"
)

func TestSizeClass(t *testing.T) {
	cases := []struct {
		bytes int64
		want  string
	}{
		{0, "app"}, {-1, "app"},
		{1, "4K"}, {4 << 10, "4K"},
		{4<<10 + 1, "64K"}, {64 << 10, "64K"},
		{64<<10 + 1, "1M"}, {1 << 20, "1M"},
		{1<<20 + 1, "16M"}, {16 << 20, "16M"},
		{16<<20 + 1, "big"},
	}
	for _, c := range cases {
		if got := SizeClass(c.bytes); got != c.want {
			t.Errorf("SizeClass(%d) = %q, want %q", c.bytes, got, c.want)
		}
	}
}

func TestDTClass(t *testing.T) {
	if got := DTClass(datatype.Contiguous(64, datatype.Int64)); got != "contig" {
		t.Errorf("contiguous class = %q", got)
	}
	if got := DTClass(shapes.SubMatrix(8, 64, 96)); got != "vector" {
		t.Errorf("submatrix class = %q", got)
	}
	if got := DTClass(shapes.LowerTriangular(16)); got != "irregular" {
		t.Errorf("lower-triangular class = %q", got)
	}
}

func TestEntryTuningValidation(t *testing.T) {
	if _, err := (Entry{Coll: "banana"}).Tuning(); err == nil {
		t.Fatal("unknown coll mode accepted")
	}
	tun, err := (Entry{Eager: 0, Frag: 8 << 10, Coll: "flat"}).Tuning()
	if err != nil {
		t.Fatal(err)
	}
	if tun.Eager == nil || *tun.Eager != 0 {
		t.Errorf("Eager sentinel not preserved: %v", tun.Eager)
	}
	if tun.FragBytes != 8<<10 {
		t.Errorf("FragBytes = %d", tun.FragBytes)
	}
}

// quickConfig is the small tuner run the determinism and round-trip
// tests share.
func quickConfig() Config {
	return Config{Space: QuickSpace(), Points: QuickPoints(7), Seed: 7}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("two identical tuner runs produced different tables:\n%s\n%s", ja, jb)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("digests differ: %q vs %q", a.Digest, b.Digest)
	}
}

func TestTableRoundTrip(t *testing.T) {
	cfg := quickConfig()
	tbl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "TUNING.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tbl, loaded) {
		t.Fatalf("loaded table differs from saved:\n%+v\n%+v", tbl, loaded)
	}

	// Re-running every point under the loaded entries must reproduce the
	// search's virtual times exactly and keep payloads digest-identical
	// to the defaults — the table is a replayable artifact, not a cache.
	for _, pt := range cfg.Points {
		key := pt.Obj.Key(pt.Spec)
		e, ok := loaded.Lookup(key)
		if !ok {
			t.Fatalf("no entry for %s", key)
		}
		tun, err := e.Tuning()
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := pt.Obj.Run(pt.Spec, tun)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.Us != e.TunedUs {
			t.Errorf("%s: replay %vus != recorded %vus", key, tuned.Us, e.TunedUs)
		}
		def, err := pt.Obj.Run(pt.Spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if def.Us != e.DefaultUs {
			t.Errorf("%s: default replay %vus != recorded %vus", key, def.Us, e.DefaultUs)
		}
		if tuned.Digest != def.Digest {
			t.Errorf("%s: tuned payload digest diverged from default", key)
		}
	}
}

func TestLoadRejectsVersionSkew(t *testing.T) {
	tbl := &Table{Version: TableVersion, Entries: map[string]Entry{}}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}

	raw, _ := os.ReadFile(path)
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = TableVersion + 1
	skewed, _ := json.Marshal(m)
	if _, err := Parse(skewed); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v, want ErrVersion", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	tbl := &Table{
		Version: TableVersion,
		Entries: map[string]Entry{"flat/64K/contig": {Eager: 1, Frag: 1 << 20, Coll: "auto"}},
	}
	tbl.Seal()
	raw, _ := json.Marshal(tbl)

	// Not JSON at all.
	if _, err := Parse([]byte("{nope")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage: got %v, want ErrCorrupt", err)
	}
	// Valid JSON, no entries.
	if _, err := Parse([]byte(`{"version":1}`)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("no entries: got %v, want ErrCorrupt", err)
	}
	// Hand-edited entry: content no longer matches the sealed digest.
	tampered := []byte(string(raw))
	var m map[string]any
	if err := json.Unmarshal(tampered, &m); err != nil {
		t.Fatal(err)
	}
	m["entries"].(map[string]any)["flat/64K/contig"].(map[string]any)["eager"] = 999.0
	tampered, _ = json.Marshal(m)
	if _, err := Parse(tampered); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered entry: got %v, want ErrCorrupt", err)
	}
}

// TestOversubscribedSpeedup pins the headline result: on an
// oversubscribed fat tree the tuner must find a collective configuration
// at least 1.2x faster than the defaults, without changing the payload.
func TestOversubscribedSpeedup(t *testing.T) {
	pt := Point{
		Spec: cluster.Scale(8, 2, 4, 8),
		Obj:  Coll{Op: "allreduce", Elems: 1 << 15},
	}
	tbl, err := Run(Config{Space: QuickSpace(), Points: []Point{pt}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := tbl.Lookup(pt.Obj.Key(pt.Spec))
	if !ok {
		t.Fatal("no entry for the oversubscribed point")
	}
	if sp := e.DefaultUs / e.TunedUs; sp < 1.2 {
		t.Fatalf("tuned speedup %.3fx < 1.2x (default %.1fus, tuned %.1fus, coll=%s)",
			sp, e.DefaultUs, e.TunedUs, e.Coll)
	}
	if e.Coll != "switch" {
		t.Errorf("expected the in-network family to win the oversubscribed point, got %q", e.Coll)
	}
}

func TestRunCurveDigestsMatch(t *testing.T) {
	pts, err := RunCurve([]CurveShape{
		{Nodes: 8, RPN: 2, Oversub: 4, Elems: 1 << 13},
		{Nodes: 8, RPN: 2, Oversub: 1, Elems: 1 << 13},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !p.DigestMatch {
			t.Errorf("%s: algorithm families disagree on the payload", p.Spec)
		}
		if p.FlatUs <= 0 || p.HierUs <= 0 || p.SwitchUs <= 0 {
			t.Errorf("%s: missing measurement: %+v", p.Spec, p)
		}
	}
}

func TestRunBenchReportsSpeedup(t *testing.T) {
	cfg := quickConfig()
	tbl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunBench(tbl, cfg.Points)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(cfg.Points) {
		t.Fatalf("got %d bench points, want %d", len(pts), len(cfg.Points))
	}
	for _, bp := range pts {
		if !bp.DigestMatch {
			t.Errorf("%s: tuned payload digest diverged", bp.Key)
		}
		if bp.Speedup < 1 {
			t.Errorf("%s: tuner picked a slower-than-default config (%.3fx)", bp.Key, bp.Speedup)
		}
	}
}
