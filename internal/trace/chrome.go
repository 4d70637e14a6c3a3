package trace

import (
	"encoding/json"
	"io"

	"gpuddt/internal/sim"
)

// Run pairs a recorded timeline with a display name. Each run becomes one
// "process" in the exported trace, so several simulations (e.g. every
// message size of a benchmark sweep) can share a single file.
//
// With GroupOf set the run becomes one process per group instead, and
// Name is not used: GroupOf maps a track name to its group label (e.g.
// a co-scheduled job's name for that rank's tracks, or "fabric" for
// links and switches) — so a two-job interference run renders as two
// labeled job groups side by side instead of one flat pile of rank
// tracks. An empty label ("") is exported as "other".
type Run struct {
	Name    string
	Rec     *sim.Recorder
	GroupOf func(track string) string
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// consumed by chrome://tracing and Perfetto). Timestamps and durations
// are in microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeTrace is the file-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the given runs as Chrome trace-event JSON. Every
// run (or group of a grouped run) is a process and every recorder track
// a named thread; pids count up in first-appearance order across runs
// and groups, over the recorder's deterministic track order. Spans
// become complete ("X") events carrying byte counts and details in
// args, and counters become a final counter ("C") sample on the run's
// first pid. Output is deterministic for a deterministic simulation.
func WriteChrome(w io.Writer, runs ...Run) error {
	var evs []chromeEvent
	next := 0
	for _, run := range runs {
		first := next
		pids := map[string]int{}
		pidOf := func(label string) int {
			pid, ok := pids[label]
			if !ok {
				pid, next = next, next+1
				pids[label] = pid
				evs = append(evs, chromeEvent{
					Name: "process_name", Ph: "M", Pid: pid,
					Args: map[string]interface{}{"name": label},
				})
			}
			return pid
		}
		if run.GroupOf == nil {
			pidOf(run.Name)
		}
		for _, t := range run.Rec.Tracks() {
			label := run.Name
			if run.GroupOf != nil {
				if label = run.GroupOf(t.Name); label == "" {
					label = "other"
				}
			}
			pid := pidOf(label)
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: t.ID,
				Args: map[string]interface{}{"name": t.Name},
			})
			for i := range t.Spans {
				sp := &t.Spans[i]
				var args map[string]interface{}
				if sp.Bytes > 0 || sp.Detail != "" {
					args = make(map[string]interface{}, 2)
					if sp.Bytes > 0 {
						args["bytes"] = sp.Bytes
					}
					if sp.Detail != "" {
						args["detail"] = sp.Detail
					}
				}
				evs = append(evs, chromeEvent{
					Name: sp.Name, Ph: "X", Pid: pid, Tid: t.ID,
					Ts: sp.Begin.Micros(), Dur: sp.Duration().Micros(),
					Args: args,
				})
			}
		}
		for _, name := range run.Rec.CounterNames() {
			evs = append(evs, chromeEvent{
				Name: name, Ph: "C", Pid: first,
				Ts:   run.Rec.Now().Micros(),
				Args: map[string]interface{}{"value": run.Rec.Counter(name)},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"})
}
