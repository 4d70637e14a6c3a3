package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// TestPublicRequestsAreNeverRecycled: a request handed to the caller of
// Isend or Irecv is the caller's for good. Requests posted before 1 000
// blocking messages, eager and rendezvous, on the same ranks — which
// recycle every record they use — still match their own messages and
// answer Done, Wait and ReceivedBytes for them afterwards.
func TestPublicRequestsAreNeverRecycled(t *testing.T) {
	small, large := shapes.SubMatrix(16, 8, 12), shapes.LowerTriangular(192)
	w := NewWorld(twoRanksTwoGPUs())
	var sent, got [2][]byte
	var early, late, rndv *Request
	w.Run(func(m *Rank) {
		peer := 1 - m.Rank()
		sbuf, lbuf := m.Malloc(small.Span(1)), m.Malloc(large.Span(1))
		kept := [2]mem.Buffer{m.Malloc(small.Span(1)), m.Malloc(large.Span(1))}
		churn := func(i int) (mem.Buffer, *datatype.Datatype) {
			if i%2 == 0 {
				return sbuf, small
			}
			return lbuf, large
		}
		if m.Rank() == 0 {
			mem.FillPattern(kept[0], 5)
			mem.FillPattern(kept[1], 6)
			sent[0], sent[1] = cpuPack(small, 1, kept[0].Bytes()), cpuPack(large, 1, kept[1].Bytes())
			rndv = m.Isend(kept[1], large, 1, peer, 98)
			for i := 0; i < 1000; i++ {
				buf, dt := churn(i)
				m.Send(buf, dt, 1, peer, 0)
			}
			m.Send(kept[0], small, 1, peer, 99)
			return
		}
		early = m.Irecv(kept[1], large, 1, peer, 98)
		late = m.Irecv(kept[0], small, 1, peer, 99)
		for i := 0; i < 1000; i++ {
			buf, dt := churn(i)
			m.Recv(buf, dt, 1, peer, 0)
		}
		late.Wait(m.Proc())
		got[0], got[1] = cpuPack(small, 1, kept[0].Bytes()), cpuPack(large, 1, kept[1].Bytes())
	})
	for i, rq := range []*Request{early, late, rndv} {
		if !rq.Done() {
			t.Errorf("request %d does not answer Done", i)
		}
	}
	if early.ReceivedBytes() != large.Size() || late.ReceivedBytes() != small.Size() {
		t.Errorf("ReceivedBytes %d and %d, want %d and %d", early.ReceivedBytes(), late.ReceivedBytes(), large.Size(), small.Size())
	}
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Errorf("message %d: payload mismatched", i)
		}
	}
	if err := w.Quiescent(); err != nil {
		t.Error(err)
	}
}

// TestLateAcksStayWithTheirMessage: an IB rendezvous of four fragments
// at the default depth of four never waits for an ACK, so its ACKs land
// after both sides are done with it. The same sender's next message, of
// six fragments, waits for ACKs from its fifth on, and its receiver
// converts every fragment of a transpose before unpacking it, slowly:
// were its receiver half the first message's, taken back while those
// ACKs were in flight, they would free ring slots it has not unpacked.
func TestLateAcksStayWithTheirMessage(t *testing.T) {
	first := shapes.LowerTriangular(192)
	cfg := twoNodes()
	cfg.Tuning = &Tuning{FragBytes: first.Size() / 4}
	w := NewWorld(cfg)
	msgs := []struct{ sdt, rdt *datatype.Datatype }{
		{first, first},
		{shapes.FullMatrix(160), shapes.Transpose(160)},
	}
	var sent, got [2][]byte
	w.Run(func(m *Rank) {
		for i, msg := range msgs {
			if m.Rank() == 0 {
				buf := m.Malloc(msg.sdt.Span(1))
				mem.FillPattern(buf, uint64(i+1))
				sent[i] = cpuPack(msg.sdt, 1, buf.Bytes())
				m.Send(buf, msg.sdt, 1, 1, i)
			} else {
				buf := m.Malloc(msg.rdt.Span(1))
				m.Recv(buf, msg.rdt, 1, 0, i)
				got[i] = cpuPack(msg.rdt, 1, buf.Bytes())
			}
		}
	})
	for i := range sent {
		if !bytes.Equal(sent[i], got[i]) {
			t.Errorf("message %d: payload mismatched", i)
		}
	}
	if err := w.Quiescent(); err != nil {
		t.Error(err)
	}
}

// TestFallbackOverRecycledRecords: with CUDA IPC persistently failing,
// every zero-copy rendezvous falls back to the staged protocol. Three in
// a row on each path and topology take the records the one before left
// behind — an aborted attempt's queues and consumer, a worker started by
// a fallback — and every payload arrives intact.
func TestFallbackOverRecycledRecords(t *testing.T) {
	dense := datatype.Contiguous(128*128, datatype.Float64)
	const msgs, count = 3, 4
	for _, path := range []struct {
		name     string
		sdt, rdt *datatype.Datatype
	}{
		{"ring", chaosStrided, chaosStrided},
		{"pack-direct", chaosStrided, dense},
		{"sender-window", dense, chaosStrided},
	} {
		for _, topo := range []struct {
			name string
			cfg  func() Config
		}{{"1gpu", twoRanksSameGPU}, {"2gpu", twoRanksTwoGPUs}} {
			what := path.name + "." + topo.name
			cfg := topo.cfg()
			cfg.Tuning = chaosTuning()
			cfg.Faults = fault.NewPlan(11, 0)
			cfg.Faults.Persistent[fault.IPCOpen] = true
			w := NewWorld(cfg)
			rec := sim.NewRecorder(w.Engine())
			var sent, got [msgs][]byte
			w.Run(func(m *Rank) {
				for i := range msgs {
					if m.Rank() == 0 {
						buf := m.Malloc(path.sdt.Span(count))
						mem.FillPattern(buf, uint64(40+i))
						sent[i] = cpuPack(path.sdt, count, buf.Bytes())
						m.Send(buf, path.sdt, count, 1, 9)
					} else {
						buf := m.Malloc(path.rdt.Span(count))
						m.Recv(buf, path.rdt, count, 0, 9)
						got[i] = cpuPack(path.rdt, count, buf.Bytes())
					}
				}
			})
			for i := range msgs {
				if !bytes.Equal(sent[i], got[i]) {
					t.Errorf("%s: message %d: payload corrupted across protocol fallback", what, i)
				}
			}
			if n := rec.Counter("mpi.fallback"); n != msgs {
				t.Errorf("%s: %d fallbacks, want %d", what, n, msgs)
			}
			if err := w.Quiescent(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
	}
}

// TestTracedPingPongTracksEachMessageProcess: with a recorder attached,
// a ping-pong of eager and rendezvous messages, whose records are
// recycled from one message to the next, puts every message's receive
// process and every rendezvous sender's worker on a track of its own,
// named for that message, with that message's one top-level span.
func TestTracedPingPongTracksEachMessageProcess(t *testing.T) {
	small, large := shapes.SubMatrix(16, 8, 12), shapes.LowerTriangular(192)
	w := NewWorld(twoRanksTwoGPUs())
	rec := sim.NewRecorder(w.Engine())
	const rounds = 6
	w.Run(func(m *Rank) {
		peer := 1 - m.Rank()
		bufs := [2]mem.Buffer{m.Malloc(small.Span(1)), m.Malloc(large.Span(1))}
		for i := range rounds {
			dt := []*datatype.Datatype{small, large}[i%2]
			if m.Rank() == 0 {
				m.Send(bufs[i%2], dt, 1, peer, i)
				m.Recv(bufs[i%2], dt, 1, peer, i)
			} else {
				m.Recv(bufs[i%2], dt, 1, peer, i)
				m.Send(bufs[i%2], dt, 1, peer, i)
			}
		}
	})
	want := map[string]string{} // track name -> its top-level span and detail
	for r := range 2 {
		want[fmt.Sprintf("rank%d.eagerRecv", r)] = "mpi.recv eager"
		want[fmt.Sprintf("rank%d.recv.%d", r, 1-r)] = "mpi.recv pipelined"
		want[fmt.Sprintf("rank%d.sendpipe", r)] = "mpi.send.ring "
	}
	tracks := map[string]int{}
	for _, tr := range rec.Tracks() {
		top, ok := want[tr.Name]
		if !ok {
			continue
		}
		tracks[tr.Name]++
		var spans []string
		for _, sp := range tr.Spans {
			if sp.Depth == 0 {
				spans = append(spans, sp.Name+" "+sp.Detail)
			}
		}
		if len(spans) != 1 || spans[0] != top {
			t.Errorf("track %s (%d) holds top-level spans %q, want one %q", tr.Name, tr.ID, spans, top)
		}
	}
	for name := range want {
		if tracks[name] != rounds/2 {
			t.Errorf("%d tracks named %s, want one per message: %d", tracks[name], name, rounds/2)
		}
	}
}

// TestDoubleReleasePanicsNamingTheKind: releasing a record nobody holds
// any more panics with the record's kind, and the audit counts a record
// from its taking to its return.
func TestDoubleReleasePanicsNamingTheKind(t *testing.T) {
	w := NewWorld(twoRanksSameGPU())
	for _, tc := range []struct {
		kind string
		take func() record
	}{
		{"eager send", func() record { return w.recs.eager.take(w, 1) }},
		{"rendezvous send", func() record { return w.recs.send.take(w, 1) }},
		{"receive", func() record { return w.recs.recv.take(w, 1) }},
		{"rendezvous receive", func() record {
			r := w.recs.pipe.take(w, 1)
			r.snd = new(pipeSend)
			return r
		}},
		{"ACK", func() record { return w.recs.ack.take(w, 1) }},
	} {
		rec := tc.take()
		if out := w.recs.out; out != 1 {
			t.Errorf("%s: %d records outstanding once taken, want 1", tc.kind, out)
		}
		rec.release()
		if out := w.recs.out; out != 0 {
			t.Errorf("%s: %d records outstanding once home, want 0", tc.kind, out)
		}
		func() {
			defer func() {
				if r, want := recover(), "mpi: "+tc.kind+" record released twice"; r != want {
					t.Errorf("second release: panic %v, want %q", r, want)
				}
			}()
			rec.release()
		}()
	}
}

// TestQuiescentNamesTheLeak: World.Quiescent reports a message record
// away from home by its kind, and a staging buffer a rank never gave
// back by its kind and rank; once both are back it reports nothing, and
// allocates nothing to say so.
func TestQuiescentNamesTheLeak(t *testing.T) {
	w := NewWorld(twoRanksSameGPU())
	defer w.Close()
	quiet := func(what string) {
		t.Helper()
		if err := w.Quiescent(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	quiet("fresh world")
	if n := testing.AllocsPerRun(100, func() { _ = w.Quiescent() }); n != 0 {
		t.Errorf("a quiet world's check allocates %v objects, want 0", n)
	}

	rq := w.recs.recv.take(w, 1)
	if err, want := w.Quiescent(), "mpi: 1 message records never came home"; err == nil || err.Error() != want {
		t.Errorf("record away from home: %v, want %q", err, want)
	}
	rq.release()
	quiet("record home")

	m := w.RankHandle(1)
	b := m.take(m.space, 64)
	if err, want := w.Quiescent(), "mpi: rank 1: 1 staging buffers outstanding"; err == nil || err.Error() != want {
		t.Errorf("staging buffer kept: %v, want %q", err, want)
	}
	m.give(b)
	quiet("staging buffer given back")
}
