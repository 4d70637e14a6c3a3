package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestQuickRun(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-quick"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if rep.GeneratedBy != "cmd/scalebench" {
		t.Errorf("generated_by = %q", rep.GeneratedBy)
	}
	if len(rep.Scale) == 0 {
		t.Fatal("no sweep points")
	}
	if rep.GoVersion != "" || rep.GoMaxProcs != 0 || rep.NumCPU != 0 {
		t.Errorf("host fields in the header without -host: %q %d %d", rep.GoVersion, rep.GoMaxProcs, rep.NumCPU)
	}
	var modelled int
	for _, pt := range rep.Scale {
		if pt.HierUs <= 0 || pt.FlatUs <= 0 {
			t.Errorf("%s %d ranks: non-positive time", pt.Coll, pt.Ranks)
		}
		if pt.WallMs != 0 || pt.HeapInuse != 0 {
			t.Errorf("%s %d ranks: host measurements without -host", pt.Coll, pt.Ranks)
		}
		if pt.Mode == "modelled" {
			modelled++
			if !pt.SerialIdentical {
				t.Errorf("%s %d ranks: quick modelled point without serial identity", pt.Coll, pt.Ranks)
			}
			if pt.Ranks > 256 && pt.MemPerRank > 64<<10 {
				t.Errorf("%s %d ranks: %d B/rank is not flyweight", pt.Coll, pt.Ranks, pt.MemPerRank)
			}
		}
	}
	if modelled == 0 {
		t.Fatal("no modelled mega-scale points in the report")
	}
	if rep.Shards <= 0 || rep.SampleRanks <= 0 {
		t.Errorf("report header missing shards/sample_ranks: %d/%d", rep.Shards, rep.SampleRanks)
	}
}

// TestShardsFlag: the -shards override must reach the modelled sweep
// without perturbing virtual times (engine determinism). One of the two
// runs also asks for -host: it reports what the host spent and moves no
// virtual time either.
func TestShardsFlag(t *testing.T) {
	var a, b, errOut bytes.Buffer
	if code := Run([]string{"-quick", "-shards", "1", "-host"}, &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := Run([]string{"-quick", "-shards", "4"}, &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var ra, rb Report
	if err := json.Unmarshal(a.Bytes(), &ra); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Shards != 1 || rb.Shards != 4 {
		t.Fatalf("shards flag not honored: %d/%d", ra.Shards, rb.Shards)
	}
	if ra.GoVersion == "" || ra.GoMaxProcs == 0 || ra.NumCPU == 0 {
		t.Errorf("-host: header lacks go_version, go_maxprocs or num_cpu")
	}
	for i := range ra.Scale {
		pa, pb := ra.Scale[i], rb.Scale[i]
		if pa.WallMs <= 0 || pa.HeapInuse <= 0 {
			t.Errorf("%s %d ranks: -host recorded no wall_ms or heap_inuse_bytes", pa.Coll, pa.Ranks)
		}
		if pa.HierUs != pb.HierUs || pa.FlatUs != pb.FlatUs {
			t.Errorf("%s %d ranks: virtual times depend on -shards or -host", pa.Coll, pa.Ranks)
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	var a, b, errOut bytes.Buffer
	if code := Run([]string{"-quick"}, &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := Run([]string{"-quick"}, &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two -quick runs differ: the sweep is not deterministic")
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
