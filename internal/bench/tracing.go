package bench

import (
	"fmt"
	"sync"

	"gpuddt/internal/sim"
	"gpuddt/internal/trace"
)

// traceMu guards traceRuns and rigSeq: with SetParallelism > 1 the
// figure runners build worlds from concurrent goroutines.
var traceMu sync.Mutex

// traceRuns, when non-nil, receives a timeline recorder for every
// simulation the figure runners build (see CollectTraces).
var traceRuns *[]trace.Run

// rigSeq numbers kernel rigs for trace labels.
var rigSeq int

// CollectTraces turns on timeline recording for every subsequently built
// benchmark world or kernel rig, so a whole figure sweep can be exported
// as one Chrome trace (one process per run). It returns the accumulating
// run list and a stop function; call stop before reading the runs.
// Recording is pure bookkeeping and does not change virtual time, so
// figure outputs are identical with collection on or off. Under
// SetParallelism > 1 the runs appear in world-creation (completion)
// order rather than the serial sweep order.
func CollectTraces() (runs *[]trace.Run, stop func()) {
	rs := &[]trace.Run{}
	traceMu.Lock()
	traceRuns = rs
	traceMu.Unlock()
	return rs, func() {
		traceMu.Lock()
		traceRuns = nil
		traceMu.Unlock()
	}
}

// attachTrace attaches a recorder to eng when collection is enabled. A
// kernel rig has no label of its own: "" numbers it in build order.
func attachTrace(eng *sim.Engine, label string) *sim.Recorder {
	traceMu.Lock()
	defer traceMu.Unlock()
	if label == "" {
		label = fmt.Sprintf("rig%d", rigSeq)
		rigSeq++
	}
	if traceRuns == nil {
		return nil
	}
	rec := sim.NewRecorder(eng)
	*traceRuns = append(*traceRuns, trace.Run{Name: label, Rec: rec})
	return rec
}
