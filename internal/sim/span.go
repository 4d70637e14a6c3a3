package sim

import "fmt"

// Recorder collects an event timeline of a simulation: nestable
// begin/end spans with virtual timestamps grouped into per-entity
// tracks (one per process, link or other resource), plus named
// counters. It exists so the questions the paper's evaluation keeps
// asking — which kernel overlapped which DMA transfer, how long a
// message spent packing versus on the wire — can be answered from a
// finished run instead of from print debugging.
//
// A Recorder is pure bookkeeping: it never sleeps, schedules events or
// spawns processes, so attaching one cannot change virtual time by
// construction. With no recorder attached, Begin returns a zero handle
// and every operation is a nil check.
type Recorder struct {
	now    *Time // its engine's clock
	tracks []*Track
	byKey  map[interface{}]*Track
	byProc map[procKey]*Track

	counters    map[string]int64
	counterSeen []string // insertion order, for deterministic reports

	firstErr error // first nesting violation observed
}

// Track is one horizontal line of the timeline: all spans recorded by a
// single entity (a simulated process, a link), in begin order.
type Track struct {
	ID    int    // dense index, stable within a run
	Name  string // entity name (process name, link name)
	Spans []Span

	open []int // indices into Spans of currently open spans (a stack)
}

// Span is one timed operation on a track. End is -1 while the span is
// still open; Depth is the nesting level at begin time (0 = top level).
type Span struct {
	Name   string
	Begin  Time
	End    Time
	Bytes  int64
	Depth  int
	Detail string
}

// Duration returns End-Begin, or 0 for an open span.
func (s *Span) Duration() Time {
	if s.End < s.Begin {
		return 0
	}
	return s.End - s.Begin
}

// SpanHandle refers to an open span; the zero value (recorder disabled)
// is valid and inert.
type SpanHandle struct {
	t   *Track
	r   *Recorder
	idx int
}

// NewRecorder attaches a fresh recorder to the engine and returns it.
// Attach before Run; the recorder observes everything from that point.
func NewRecorder(e *Engine) *Recorder {
	e.rec = newRecorder(&e.now)
	return e.rec
}

// newRecorder is a recorder reading the given engine clock (see also
// ShardedEngine.Record).
func newRecorder(now *Time) *Recorder {
	return &Recorder{
		now:      now,
		byKey:    make(map[interface{}]*Track),
		byProc:   make(map[procKey]*Track),
		counters: make(map[string]int64),
	}
}

// Recorder returns the attached recorder, or nil when tracing is off.
func (e *Engine) Recorder() *Recorder { return e.rec }

// Now returns the engine's current virtual time (the timeline's end once
// the simulation has finished).
func (r *Recorder) Now() Time { return *r.now }

// Tracks returns every track in creation order.
func (r *Recorder) Tracks() []*Track { return r.tracks }

// track returns (creating on first use) the track for key. Keys are
// identities — a *Link — so entities sharing a display name still get
// distinct tracks; a sharded run keys its tracks by name.
func (r *Recorder) track(key interface{}, name string) *Track {
	if t, ok := r.byKey[key]; ok {
		return t
	}
	t := r.newTrack(name)
	r.byKey[key] = t
	return t
}

func (r *Recorder) newTrack(name string) *Track {
	t := &Track{ID: len(r.tracks), Name: name}
	r.tracks = append(r.tracks, t)
	return t
}

// procKey is a process's identity: its record and the schedule sequence
// of its start. A record started again (Engine.Start) is a new process,
// so it gets a new track, under its new name, as a spawned one would.
type procKey struct {
	p    *Proc
	born uint64
}

// procTrack is track for process p.
func (r *Recorder) procTrack(p *Proc) *Track {
	k := procKey{p, p.born}
	t, ok := r.byProc[k]
	if !ok {
		t = r.newTrack(p.name)
		r.byProc[k] = t
	}
	return t
}

// begin opens a span on track t at the current virtual time.
func (r *Recorder) begin(t *Track, name string, bytes int64) SpanHandle {
	t.Spans = append(t.Spans, Span{
		Name:  name,
		Begin: *r.now,
		End:   -1,
		Bytes: bytes,
		Depth: len(t.open),
	})
	idx := len(t.Spans) - 1
	t.open = append(t.open, idx)
	return SpanHandle{t: t, r: r, idx: idx}
}

// Begin opens a span on the calling process's track. It returns an
// inert handle when no recorder is attached.
func (p *Proc) Begin(name string) SpanHandle {
	return p.BeginBytes(name, 0)
}

// BeginBytes is Begin with a byte count attached to the span.
func (p *Proc) BeginBytes(name string, bytes int64) SpanHandle {
	rec := p.e.rec
	if rec == nil {
		return SpanHandle{}
	}
	return rec.begin(rec.procTrack(p), name, bytes)
}

// SetBytes attaches (or overrides) the byte count of an open span.
func (h SpanHandle) SetBytes(n int64) {
	if h.t != nil {
		h.t.Spans[h.idx].Bytes = n
	}
}

// SetDetail attaches a free-form annotation to the span.
func (h SpanHandle) SetDetail(d string) {
	if h.t != nil {
		h.t.Spans[h.idx].Detail = d
	}
}

// End closes the span at the current virtual time. Spans on one track
// must close innermost-first; a violation is recorded and reported by
// Validate rather than panicking mid-simulation.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	sp := &h.t.Spans[h.idx]
	if sp.End >= 0 {
		h.r.noteErr(fmt.Errorf("sim: span %q on track %q ended twice", sp.Name, h.t.Name))
		return
	}
	sp.End = *h.r.now
	if n := len(h.t.open); n == 0 || h.t.open[n-1] != h.idx {
		h.r.noteErr(fmt.Errorf("sim: span %q on track %q ended out of nesting order", sp.Name, h.t.Name))
		return
	}
	h.t.open = h.t.open[:len(h.t.open)-1]
}

func (r *Recorder) noteErr(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// Count adds delta to the named counter (nil-safe when tracing is off).
func (p *Proc) Count(name string, delta int64) {
	if p.e.rec != nil {
		p.e.rec.Count(name, delta)
	}
}

// Count adds delta to the named counter.
func (r *Recorder) Count(name string, delta int64) {
	if _, ok := r.counters[name]; !ok {
		r.counterSeen = append(r.counterSeen, name)
	}
	r.counters[name] += delta
}

// Counter returns the current value of the named counter.
func (r *Recorder) Counter(name string) int64 { return r.counters[name] }

// CounterNames returns counter names in first-use order.
func (r *Recorder) CounterNames() []string {
	return append([]string(nil), r.counterSeen...)
}

// Validate checks the recorded timeline is well-formed: every begin has
// a matching end, durations are non-negative, nesting closed in order,
// and child spans lie within their parents. It returns the first
// violation found, or nil.
func (r *Recorder) Validate() error {
	if r.firstErr != nil {
		return r.firstErr
	}
	for _, t := range r.tracks {
		if n := len(t.open); n > 0 {
			sp := t.Spans[t.open[n-1]]
			return fmt.Errorf("sim: span %q on track %q never ended", sp.Name, t.Name)
		}
		// Replay nesting: spans are stored in begin order, so an
		// enclosing span precedes its children.
		var stack []int
		for i, sp := range t.Spans {
			if sp.End < sp.Begin {
				return fmt.Errorf("sim: span %q on track %q has negative duration (%v..%v)", sp.Name, t.Name, sp.Begin, sp.End)
			}
			for len(stack) > 0 && t.Spans[stack[len(stack)-1]].End <= sp.Begin && t.Spans[stack[len(stack)-1]].Depth >= sp.Depth {
				stack = stack[:len(stack)-1]
			}
			if sp.Depth != len(stack) {
				return fmt.Errorf("sim: span %q on track %q at depth %d, expected %d", sp.Name, t.Name, sp.Depth, len(stack))
			}
			if len(stack) > 0 {
				parent := t.Spans[stack[len(stack)-1]]
				if sp.Begin < parent.Begin || sp.End > parent.End {
					return fmt.Errorf("sim: span %q (%v..%v) escapes parent %q (%v..%v) on track %q",
						sp.Name, sp.Begin, sp.End, parent.Name, parent.Begin, parent.End, t.Name)
				}
			}
			stack = append(stack, i)
		}
	}
	return nil
}

// SpanCount returns the total number of recorded spans across tracks.
func (r *Recorder) SpanCount() int {
	var n int
	for _, t := range r.tracks {
		n += len(t.Spans)
	}
	return n
}
