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
	if rep.GeneratedBy != "cmd/appbench" {
		t.Errorf("generated_by = %q", rep.GeneratedBy)
	}
	families := map[string]bool{}
	for _, pt := range rep.Apps {
		families[pt.Family] = true
		if pt.ElapsedUs <= 0 || pt.Digest == "" {
			t.Errorf("%s/%d ranks: unverified point %+v", pt.Family, pt.Ranks, pt)
		}
		if (pt.Family == "stencil2d" || pt.Family == "stencil3d") && pt.SubarraySpans == 0 {
			t.Errorf("%s/%d ranks: no subarray halo spans", pt.Family, pt.Ranks)
		}
	}
	for _, fam := range []string{"ml-ring", "ml-tree", "stencil2d", "stencil3d", "checkpoint"} {
		if !families[fam] {
			t.Errorf("family %s missing from report", fam)
		}
	}
	if len(rep.Interference) != 3 {
		t.Fatalf("interference policies = %d, want 3", len(rep.Interference))
	}
	for _, st := range rep.Interference {
		for _, j := range st.Jobs {
			if !j.DigestMatch {
				t.Errorf("%s/%s: digest changed under contention", st.Policy, j.Job)
			}
		}
	}
}

// TestDeterministicOutput: the report is a pure function of the source —
// two runs are byte-identical (CI compares the full report with the
// committed BENCH_apps.json) and say nothing about the host.
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
	for _, key := range []string{"go_version", "go_maxprocs", "num_cpu"} {
		if bytes.Contains(a.Bytes(), []byte(key)) {
			t.Errorf("the report names %s", key)
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}
