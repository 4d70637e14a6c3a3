package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpuddt/internal/sim"
)

// TestWriteChromeGroups builds a timeline shaped like a two-job
// interference run (rank tracks for each job plus fabric links) and
// checks the schema: one process per group label, every track's spans
// under its group's pid, thread and process name metadata present.
func TestWriteChromeGroups(t *testing.T) {
	e := sim.NewEngine()
	rec := sim.NewRecorder(e)
	work := func(name string) {
		e.Spawn(name, func(p *sim.Proc) {
			h := p.BeginBytes("phase", 64)
			p.Sleep(10)
			h.End()
		})
	}
	work("rank0")
	work("rank1")
	work("rank2")
	work("rank3")
	work("link.ib.0")
	e.Run()
	if err := rec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	groupOf := func(track string) string {
		switch track {
		case "rank0", "rank1":
			return "job:ml"
		case "rank2", "rank3":
			return "job:stencil"
		default:
			return "fabric"
		}
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Run{Rec: rec, GroupOf: groupOf}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}

	var out struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}

	procName := map[int]string{} // pid -> group label
	trackPid := map[string]int{} // track name -> pid
	spans := map[string]int{}    // track name (via tid+pid) -> span count
	tidName := map[[2]int]string{}
	for _, ev := range out.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name":
			procName[ev.Pid] = ev.Args["name"].(string)
		case ev.Ph == "M" && ev.Name == "thread_name":
			name := ev.Args["name"].(string)
			trackPid[name] = ev.Pid
			tidName[[2]int{ev.Pid, ev.Tid}] = name
		case ev.Ph == "X":
			spans[tidName[[2]int{ev.Pid, ev.Tid}]]++
		}
	}

	if len(procName) != 3 {
		t.Fatalf("got %d process groups %v, want 3", len(procName), procName)
	}
	labels := map[string]bool{}
	for _, l := range procName {
		labels[l] = true
	}
	for _, want := range []string{"job:ml", "job:stencil", "fabric"} {
		if !labels[want] {
			t.Errorf("missing process group %q (have %v)", want, procName)
		}
	}
	for track, wantGroup := range map[string]string{
		"rank0": "job:ml", "rank1": "job:ml",
		"rank2": "job:stencil", "rank3": "job:stencil",
	} {
		pid, ok := trackPid[track]
		if !ok {
			t.Fatalf("track %q has no thread_name metadata", track)
		}
		if procName[pid] != wantGroup {
			t.Errorf("track %q under group %q, want %q", track, procName[pid], wantGroup)
		}
		if spans[track] == 0 {
			t.Errorf("track %q has no spans", track)
		}
	}
	if pid, ok := trackPid["link.ib.0"]; !ok || !strings.Contains(procName[pid], "fabric") {
		t.Errorf("fabric track not grouped under fabric: %v", procName)
	}
}
