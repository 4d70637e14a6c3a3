package sim

import (
	"strings"
	"testing"
)

// TestRecorderSpans checks begin/end bookkeeping: timestamps, nesting
// depth, byte counts and counters.
func TestRecorderSpans(t *testing.T) {
	e := NewEngine()
	r := NewRecorder(e)
	e.Spawn("worker", func(p *Proc) {
		outer := p.BeginBytes("outer", 100)
		p.Sleep(10 * Nanosecond)
		inner := p.Begin("inner")
		inner.SetBytes(40)
		inner.SetDetail("d")
		p.Sleep(5 * Nanosecond)
		inner.End()
		p.Sleep(1 * Nanosecond)
		outer.End()
		p.Count("ops", 2)
		p.Count("ops", 3)
	})
	e.Run()

	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if n := r.SpanCount(); n != 2 {
		t.Fatalf("SpanCount = %d, want 2", n)
	}
	tracks := r.Tracks()
	if len(tracks) != 1 || tracks[0].Name != "worker" {
		t.Fatalf("tracks = %+v, want one track 'worker'", tracks)
	}
	spans := tracks[0].Spans
	if spans[0].Name != "outer" || spans[0].Depth != 0 || spans[0].Bytes != 100 {
		t.Errorf("outer span = %+v", spans[0])
	}
	if spans[1].Name != "inner" || spans[1].Depth != 1 || spans[1].Bytes != 40 || spans[1].Detail != "d" {
		t.Errorf("inner span = %+v", spans[1])
	}
	if got := spans[1].Duration(); got != 5*Nanosecond {
		t.Errorf("inner duration = %v, want 5ns", got)
	}
	if got := spans[0].Duration(); got != 16*Nanosecond {
		t.Errorf("outer duration = %v, want 16ns", got)
	}
	if spans[1].Begin < spans[0].Begin || spans[1].End > spans[0].End {
		t.Errorf("inner escapes outer: %+v vs %+v", spans[1], spans[0])
	}
	if got := r.Counter("ops"); got != 5 {
		t.Errorf("Counter(ops) = %d, want 5", got)
	}
	if names := r.CounterNames(); len(names) != 1 || names[0] != "ops" {
		t.Errorf("CounterNames = %v", names)
	}
}

// TestRecorderDisabled checks the zero-cost path: with no recorder, span
// handles are inert and nothing is recorded.
func TestRecorderDisabled(t *testing.T) {
	e := NewEngine()
	e.Spawn("worker", func(p *Proc) {
		h := p.Begin("x")
		h.SetBytes(1)
		h.SetDetail("d")
		p.Sleep(Nanosecond)
		h.End()
		p.Count("c", 1)
	})
	e.Run()
	if e.Recorder() != nil {
		t.Fatal("Recorder() should be nil when not attached")
	}
}

// TestRecorderValidateOpenSpan checks that an unended span is reported.
func TestRecorderValidateOpenSpan(t *testing.T) {
	e := NewEngine()
	r := NewRecorder(e)
	e.Spawn("worker", func(p *Proc) {
		p.Begin("leaked")
		p.Sleep(Nanosecond)
	})
	e.Run()
	err := r.Validate()
	if err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("Validate = %v, want never-ended error", err)
	}
}

// TestRecorderValidateOutOfOrder checks that closing spans out of nesting
// order is reported.
func TestRecorderValidateOutOfOrder(t *testing.T) {
	e := NewEngine()
	r := NewRecorder(e)
	e.Spawn("worker", func(p *Proc) {
		a := p.Begin("a")
		b := p.Begin("b")
		a.End() // wrong: b is innermost
		b.End()
	})
	e.Run()
	err := r.Validate()
	if err == nil || !strings.Contains(err.Error(), "out of nesting order") {
		t.Fatalf("Validate = %v, want nesting-order error", err)
	}
}

// TestRecorderDoubleEnd checks that ending a span twice is reported.
func TestRecorderDoubleEnd(t *testing.T) {
	e := NewEngine()
	r := NewRecorder(e)
	e.Spawn("worker", func(p *Proc) {
		h := p.Begin("x")
		h.End()
		h.End()
	})
	e.Run()
	err := r.Validate()
	if err == nil || !strings.Contains(err.Error(), "ended twice") {
		t.Fatalf("Validate = %v, want double-end error", err)
	}
}

// TestRecorderLinkSpans checks that link occupancy shows up on the
// link's own track and never overlaps (spans begin after acquisition).
func TestRecorderLinkSpans(t *testing.T) {
	e := NewEngine()
	r := NewRecorder(e)
	l := e.NewLink("wire", 10, Nanosecond)
	for i := 0; i < 2; i++ {
		e.Spawn("sender", func(p *Proc) {
			l.Transfer(p, 1000)
		})
	}
	e.Run()
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var link *Track
	for _, tk := range r.Tracks() {
		if tk.Name == "wire" {
			link = tk
		}
	}
	if link == nil || len(link.Spans) != 2 {
		t.Fatalf("want 2 spans on link track, got %+v", link)
	}
	if link.Spans[0].End > link.Spans[1].Begin {
		t.Errorf("link spans overlap: %+v then %+v", link.Spans[0], link.Spans[1])
	}
	for _, sp := range link.Spans {
		if sp.Name != "xfer" || sp.Bytes != 1000 {
			t.Errorf("link span = %+v", sp)
		}
	}
}

// TestRecorderTimingTransparent checks the recorder never perturbs
// virtual time: the same simulation finishes at the same instant with
// and without a recorder attached.
func TestRecorderTimingTransparent(t *testing.T) {
	run := func(record bool) Time {
		e := NewEngine()
		if record {
			NewRecorder(e)
		}
		l := e.NewLink("wire", 5, 10*Nanosecond)
		res := e.NewResource("res", 1)
		for i := 0; i < 3; i++ {
			e.Spawn("p", func(p *Proc) {
				h := SpanHandle{}
				if record {
					h = p.BeginBytes("work", 500)
				}
				res.Acquire(p)
				l.Transfer(p, 500)
				res.Release()
				h.End()
			})
		}
		e.Run()
		return e.Now()
	}
	plain, traced := run(false), run(true)
	if plain != traced {
		t.Fatalf("recorder changed virtual time: %v vs %v", plain, traced)
	}
}

// SetBytes attaches (or overrides) the byte count of an open span.
func (h SpanHandle) SetBytes(n int64) {
	if h.t != nil {
		h.t.Spans[h.idx].Bytes = n
	}
}
