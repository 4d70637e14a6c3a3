package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
)

// toyGroups partitions toy actors into 8 fixed blocks. Shard counts
// that divide 8 map whole blocks to shards, so in-block sends are
// always same-shard (legal below the lookahead) for every shard count
// under test while the block structure — and hence the trace — stays
// independent of the sharding.
const toyGroups = 8

// toyActor is a flyweight state machine for engine tests: on every
// message with Round > 0 it forwards to a pseudo-randomly chosen peer,
// folding (time, sender, round) into a running hash so any divergence
// in event order or timing changes the trace.
type toyActor struct {
	id   ActorID
	n    int
	far  Time // minimum delay for cross-block sends (>= lookahead)
	near Time // delay for in-block sends (may be < lookahead)
	hash uint64
	seen int
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (a *toyActor) HandleEvent(sc *ShardCtx, ev Event) {
	a.hash = mix64(a.hash ^ uint64(sc.Now()) ^ uint64(ev.From)<<32 ^ uint64(ev.Round))
	a.seen++
	if ev.Round == 0 {
		return
	}
	r := mix64(uint64(a.id)*1e9 + uint64(ev.Round))
	bs := a.n / toyGroups
	var to ActorID
	var d Time
	if r&1 == 0 && bs > 1 {
		// In-block hop: stays on the actor's own block, short delay.
		base := (int(a.id) / bs) * bs
		to = ActorID(base + int(r>>8)%bs)
		d = a.near + Time(r>>16%1000)
	} else {
		to = ActorID(int(r>>8) % a.n)
		d = a.far + Time(r>>16%1000)
	}
	sc.Post(d, Event{To: to, Kind: 1, From: a.id, Round: ev.Round - 1})
}

// runToy builds a world of n actors split across the given shard count
// (first half on the low shards, second half on the high ones) and
// returns a deterministic trace digest and the number of events run.
func runToy(t *testing.T, n, shards int, lookahead Time) (uint64, int64) {
	t.Helper()
	if shards > toyGroups || toyGroups%shards != 0 || n%toyGroups != 0 {
		t.Fatalf("toy world needs shards dividing %d and n a multiple of it", toyGroups)
	}
	se := NewShardedEngine(shards, lookahead)
	actors := make([]*toyActor, n)
	for i := 0; i < n; i++ {
		a := &toyActor{id: ActorID(i), n: n, far: lookahead, near: 1 * Nanosecond}
		block := i / (n / toyGroups)
		actors[i] = a
		se.AddActor(block*shards/toyGroups, a)
	}
	for i := 0; i < n; i++ {
		se.Post(Time(i), Event{To: ActorID(i), Kind: 1, From: -1, Round: 40})
	}
	se.Run()
	h := uint64(0)
	for _, a := range actors {
		h = mix64(h ^ a.hash ^ uint64(a.seen))
	}
	return h, se.Events()
}

// TestShardedDeterminism: the trace must be byte-identical whether the
// world runs on one shard (the serial reference) or several.
func TestShardedDeterminism(t *testing.T) {
	const n = 64
	la := 2 * Microsecond
	ref, refN := runToy(t, n, 1, la)
	for _, shards := range []int{2, 4, 8} {
		got, gotN := runToy(t, n, shards, la)
		if got != ref {
			t.Fatalf("shards=%d: trace %x, serial reference %x", shards, got, ref)
		}
		if gotN != refN {
			t.Fatalf("shards=%d: %d events, reference %d", shards, gotN, refN)
		}
	}
	if refN == 0 {
		t.Fatal("toy world executed no events")
	}
}

// TestShardedRepeatable: same configuration twice gives the same trace
// (nothing of the host, such as map iteration order, may leak into it).
func TestShardedRepeatable(t *testing.T) {
	a, _ := runToy(t, 32, 4, Microsecond)
	b, _ := runToy(t, 32, 4, Microsecond)
	if a != b {
		t.Fatalf("two identical runs diverged: %x vs %x", a, b)
	}
}

// violator posts a cross-shard event closer than the lookahead.
type violator struct{ peer ActorID }

func (v *violator) HandleEvent(sc *ShardCtx, ev Event) {
	sc.Post(1*Nanosecond, Event{To: v.peer, From: sc.Self()})
}

// TestShardedLookaheadViolation: breaking the conservative contract is
// a programming error and must panic, not silently skew the clock.
func TestShardedLookaheadViolation(t *testing.T) {
	se := NewShardedEngine(2, Microsecond)
	b := se.AddActor(1, &violator{})
	a := se.AddActor(0, &violator{peer: b})
	se.Post(0, Event{To: a})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead violation did not panic")
		}
	}()
	se.Run()
}

// twice answers every event with two posts to itself.
type twice struct{}

func (twice) HandleEvent(sc *ShardCtx, ev Event) {
	if ev.Round > 0 {
		sc.Post(Nanosecond, Event{To: sc.Self()})
		sc.Post(Nanosecond, Event{To: sc.Self()})
	}
}

// TestShardedSeqOverflowPanics: an actor's post sequence is the low
// half of Event.pri. One that has used all 2^32-1 values must stop the
// run, as the setup sequence does, rather than wrap and stamp a
// priority a second time. The counter starts two short of the limit:
// the first post is the last legal one.
func TestShardedSeqOverflowPanics(t *testing.T) {
	se := NewShardedEngine(1, 0)
	a := se.AddActor(0, twice{})
	se.actorSeq[a] = 1<<32 - 2
	se.Post(0, Event{To: a, Round: 1})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "sequence overflow") {
			t.Fatalf("wrapped actor sequence: recovered %v, want a sequence overflow panic", r)
		}
		if se.actorSeq[a] != 1<<32-1 {
			t.Fatalf("sequence left at %d, want the last legal value %d", se.actorSeq[a], uint32(1<<32-1))
		}
	}()
	se.Run()
}

// bomb panics with a value of its own on its first event.
type bomb struct{}

func (bomb) HandleEvent(sc *ShardCtx, ev Event) { panic(errBomb) }

var errBomb = fmt.Errorf("bomb went off")

// TestShardedPanicIsTheCallers: a handler's panic reaches Run's caller
// as it was raised — the original value, and a stack that still holds
// the handler's frame, which a relay re-raising from Run would lose.
func TestShardedPanicIsTheCallers(t *testing.T) {
	se := NewShardedEngine(2, Microsecond)
	se.AddActor(0, twice{})
	b := se.AddActor(1, bomb{})
	se.Post(0, Event{To: 0})
	se.Post(Nanosecond, Event{To: b})
	defer func() {
		if r := recover(); r != errBomb {
			t.Fatalf("recovered %v, want the handler's own value", r)
		}
		if stack := string(debug.Stack()); !strings.Contains(stack, "sim.bomb.HandleEvent") {
			t.Fatalf("the handler is not on the panic's stack:\n%s", stack)
		}
	}()
	se.Run()
}

// spanner records one span per event on its own track.
type spanner struct{}

func (spanner) HandleEvent(sc *ShardCtx, ev Event) {
	sc.Span(fmt.Sprintf("actor%d", sc.Self()), fmt.Sprintf("e%d", ev.Round), sc.Now(), sc.Now()+Nanosecond, ev.A)
}

// TestShardedRecords: spans from different shards land on the engine's
// one recorder, a track per name in first-use order, and the recorder's
// clock is the time of the last event run. Without a recorder Span is
// inert.
func TestShardedRecords(t *testing.T) {
	for _, record := range []bool{true, false} {
		se := NewShardedEngine(2, Microsecond)
		var rec *Recorder
		if record {
			rec = se.Record()
		}
		a := se.AddActor(0, spanner{})
		b := se.AddActor(1, spanner{})
		se.Post(3*Nanosecond, Event{To: b, Round: 2, A: 20})
		se.Post(1*Nanosecond, Event{To: a, Round: 1, A: 10})
		se.Post(1*Nanosecond, Event{To: b, Round: 3, A: 30})
		se.Run()
		if se.Events() != 3 {
			t.Fatalf("Events() = %d, want 3", se.Events())
		}
		if !record {
			continue
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		var got []string
		for _, tk := range rec.Tracks() {
			for _, sp := range tk.Spans {
				got = append(got, fmt.Sprintf("%s/%s@%v+%v:%d", tk.Name, sp.Name, sp.Begin, sp.Duration(), sp.Bytes))
			}
		}
		want := "[actor0/e1@1.00ns+1.00ns:10 actor1/e3@1.00ns+1.00ns:30 actor1/e2@3.00ns+1.00ns:20]"
		if fmt.Sprint(got) != want {
			t.Fatalf("recorded %v, want %s", got, want)
		}
		if rec.Now() != 3*Nanosecond {
			t.Fatalf("Now() = %v, want the last event's 3ns", rec.Now())
		}
	}
}

// chainActor forwards a token along the actor ring until TTL expires.
type chainActor struct {
	id ActorID
	n  int
}

func (c *chainActor) HandleEvent(sc *ShardCtx, ev Event) {
	if ev.Round == 0 {
		return
	}
	sc.Post(2*Microsecond, Event{To: ActorID((int(c.id) + 1) % c.n), From: c.id, Round: ev.Round - 1})
}

// BenchmarkShardedEvents measures raw event dispatch throughput (the
// budget that sizes the 16k-rank sweeps).
func BenchmarkShardedEvents(b *testing.B) {
	const n = 1024
	se := NewShardedEngine(1, Microsecond)
	actors := make([]*chainActor, n)
	for i := 0; i < n; i++ {
		actors[i] = &chainActor{id: ActorID(i), n: n}
		se.AddActor(0, actors[i])
	}
	per := b.N/n + 1
	for i := 0; i < n; i++ {
		se.Post(0, Event{To: ActorID(i), Round: int32(per)})
	}
	b.ResetTimer()
	se.Run()
}
