package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gpuddt/internal/cluster"
	"gpuddt/internal/model"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// record builds a small two-track timeline shaped like one pipelined
// message: an mpi.recv window overlapping pack, wire and unpack spans.
func record(t *testing.T) *sim.Recorder {
	t.Helper()
	e := sim.NewEngine()
	r := sim.NewRecorder(e)
	l := e.NewLink("wire0", 1, 0)
	e.Spawn("recv", func(p *sim.Proc) {
		h := p.BeginBytes("mpi.recv", 1000)
		h.SetDetail("pipelined")
		p.Sleep(10 * sim.Nanosecond)
		u := p.BeginBytes("frag.consume", 1000)
		p.Sleep(20 * sim.Nanosecond)
		u.End()
		h.End()
		p.Count("mpi.ack", 1)
	})
	e.Spawn("send", func(p *sim.Proc) {
		h := p.BeginBytes("frag.pack", 1000)
		p.Sleep(8 * sim.Nanosecond)
		h.End()
		l.Transfer(p, 12)
	})
	e.Run()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return r
}

// TestWriteChrome checks the export's schema on a recording of each
// engine: the two-process timeline above, and a modelled 16-rank
// allgather, whose recorder holds one completion span per rank and no
// counters.
func TestWriteChrome(t *testing.T) {
	res, err := model.Run(model.Options{
		Spec: cluster.ScaleModelled(8, 2, 2, 2, 2), Coll: "allgather",
		Dt: shapes.SubMatrix(16, 8, 12), Count: 1, RecordSpans: true,
	})
	if err != nil {
		t.Fatalf("model.Run: %v", err)
	}
	if st := Phases(res.Rec); len(st) != 1 || st[0].Name != "allgather" || st[0].Count != 16 {
		t.Errorf("Phases of the modelled run = %+v, want 16 allgather spans", st)
	}
	for _, c := range []struct {
		name     string
		r        *sim.Recorder
		counters bool
	}{{"test", record(t), true}, {"modelled", res.Rec, false}} {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, Run{Name: c.name, Rec: c.r}); err != nil {
			t.Fatalf("%s: WriteChrome: %v", c.name, err)
		}
		var out struct {
			TraceEvents []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("%s: output is not JSON: %v", c.name, err)
		}
		var xs, ms, cs int
		for _, ev := range out.TraceEvents {
			switch ev["ph"] {
			case "X":
				xs++
				if ev["name"] == "" || ev["ts"] == nil {
					t.Errorf("%s: bad X event: %v", c.name, ev)
				}
			case "M":
				ms++
			case "C":
				cs++
			default:
				t.Errorf("%s: unexpected phase %v", c.name, ev["ph"])
			}
		}
		if xs != c.r.SpanCount() {
			t.Errorf("%s: X events = %d, want %d", c.name, xs, c.r.SpanCount())
		}
		if ms != 1+len(c.r.Tracks()) || (cs > 0) != c.counters {
			t.Errorf("%s: got M=%d C=%d, want a process and %d threads named, counters: %v",
				c.name, ms, cs, len(c.r.Tracks()), c.counters)
		}
	}
}

func TestWriteTimeline(t *testing.T) {
	r := record(t)
	var buf bytes.Buffer
	WriteTimeline(&buf, r)
	out := buf.String()
	for _, want := range []string{"recv:", "send:", "wire0:", "mpi.recv", "frag.pack", "mpi.ack"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q in:\n%s", want, out)
		}
	}
}

func TestPhasesAndTransfers(t *testing.T) {
	r := record(t)
	stats := Phases(r)
	byName := map[string]PhaseStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if st := byName["frag.consume"]; st.Count != 1 || st.Total != 20*sim.Nanosecond {
		t.Errorf("frag.consume stat = %+v", st)
	}

	trs := Transfers(r)
	if len(trs) != 1 {
		t.Fatalf("Transfers = %d, want 1", len(trs))
	}
	tr := trs[0]
	if tr.Bytes != 1000 || tr.Label != "pipelined" {
		t.Errorf("transfer = %+v", tr)
	}
	if tr.Unpack != 20*sim.Nanosecond {
		t.Errorf("unpack = %v, want 20ns", tr.Unpack)
	}
	// The sender's pack span overlaps the first 8ns of the window.
	if tr.Pack != 8*sim.Nanosecond {
		t.Errorf("pack = %v, want 8ns", tr.Pack)
	}
	if tr.Wire != 12*sim.Nanosecond {
		t.Errorf("wire = %v, want 12ns", tr.Wire)
	}
	if tr.Idle < 0 || tr.Idle > tr.Duration() {
		t.Errorf("idle = %v out of range (duration %v)", tr.Idle, tr.Duration())
	}

	var buf bytes.Buffer
	WritePhases(&buf, r)
	if !strings.Contains(buf.String(), "phase attribution") {
		t.Errorf("WritePhases output missing header:\n%s", buf.String())
	}
}

func TestCoverageMergesOverlaps(t *testing.T) {
	iv := [][2]sim.Time{{0, 10}, {5, 15}, {20, 30}, {22, 25}}
	if got := sumIntervals(mergeIntervals(iv)); got != 25 {
		t.Fatalf("coverage = %v, want 25", got)
	}
	if got := sumIntervals(mergeIntervals(nil)); got != 0 {
		t.Fatalf("coverage(nil) = %v, want 0", got)
	}
}
