package sim

import "fmt"

// Sharded discrete-event engine.
//
// The cooperative Engine in engine.go gives every simulated process its
// own coroutine (and stack) and resumes them one at a time off a single
// event heap. That is the right tool for protocol-accurate worlds
// (hundreds of ranks), but at 16k+ ranks both the stacks and the single
// heap dominate the cost. The ShardedEngine is the scale-out counterpart
// over the same Event and heap (event.go):
//
//   - No goroutine per entity. Actors are flyweight state machines that
//     receive value-typed Events; all state advances inside HandleEvent.
//   - The event heap is partitioned into shards. Each shard owns a
//     disjoint set of actors (in the fat-tree worlds of internal/model,
//     all ranks under one group of leaf switches), so every heap is a
//     fraction of the world deep.
//   - Shards are drained in turn, on the caller's goroutine, in windows
//     [T, T+lookahead) of virtual time, where T is the global minimum
//     pending timestamp. Any event crossing a shard boundary must be
//     scheduled at least `lookahead` in the future (in a fat tree, the
//     leaf uplink hop guarantees exactly that), so no shard can receive
//     work inside the window being drained. Cross-shard events wait in
//     the target's inbox and are merged into its heap when the window
//     closes. That contract is also all a multi-process executor would
//     need; nothing here runs concurrently.
//
// Determinism is independent of the shard count. Events order by
// (At, pri) with the sender-stamped pri described on Event, so the
// per-actor event sequence — and therefore every virtual timestamp —
// is byte-identical for Shards=1 and Shards=N. One shard is the same
// loop with a window as wide as the run.

// ActorID names an actor registered with AddActor. IDs are assigned
// sequentially from zero in registration order.
type ActorID = int32

// Handler is a flyweight actor: all of its state lives in the struct
// implementing the interface, and advances only inside HandleEvent.
// Exactly one HandleEvent executes at any instant, so handlers may
// touch any state of the simulation without synchronisation.
type Handler interface {
	HandleEvent(sc *ShardCtx, ev Event)
}

// ShardCtx is the per-shard execution context handed to HandleEvent.
// It is also the shard itself: heap, clock and inbox live here.
type ShardCtx struct {
	se  *ShardedEngine
	id  int
	now Time
	cur ActorID // actor currently executing

	tables         // its queue is the shard's heap: a set off the table shelf, shelved when Run ends
	inbox  []Event // cross-shard arrivals, merged when the window closes

	events   int64
	heapPeak int
}

// ShardedEngine coordinates the shards. Build with NewShardedEngine,
// register actors with AddActor, seed initial events with Post, then
// call Run exactly once.
type ShardedEngine struct {
	lookahead  Time
	shards     []*ShardCtx
	handlers   []Handler
	actorShard []int32
	actorSeq   []uint32
	setupSeq   uint64
	ran        bool

	now Time      // time of the last event run: the Recorder's clock
	rec *Recorder // nil unless Record attached one
}

const timeMax = Time(1) << 62

// NewShardedEngine creates an engine with the given shard count. With
// more than one shard the lookahead must be positive: it is the minimum
// virtual delay of any cross-shard event and the width of the window
// the shards are drained in.
func NewShardedEngine(shards int, lookahead Time) *ShardedEngine {
	if shards < 1 {
		panic("sim: ShardedEngine needs at least one shard")
	}
	if shards > 1 && lookahead <= 0 {
		panic("sim: ShardedEngine with >1 shard needs a positive lookahead")
	}
	se := &ShardedEngine{lookahead: lookahead}
	for i := 0; i < shards; i++ {
		se.shards = append(se.shards, &ShardCtx{se: se, id: i, tables: takeTables()})
	}
	return se
}

// Record attaches a fresh recorder to the engine and returns it. Attach
// before Run. Its Now is the time of the last event run.
func (se *ShardedEngine) Record() *Recorder {
	se.rec = newRecorder(&se.now)
	return se.rec
}

// AddActor registers a flyweight actor on the given shard and returns
// its ID. Must be called before Run.
func (se *ShardedEngine) AddActor(shard int, h Handler) ActorID {
	if se.ran {
		panic("sim: AddActor after Run")
	}
	if shard < 0 || shard >= len(se.shards) {
		panic(fmt.Sprintf("sim: AddActor shard %d out of %d", shard, len(se.shards)))
	}
	id := ActorID(len(se.handlers))
	se.handlers = append(se.handlers, h)
	se.actorShard = append(se.actorShard, int32(shard))
	se.actorSeq = append(se.actorSeq, 0)
	return id
}

// Post schedules a setup event before Run starts. Setup events carry a
// priority below every runtime event at the same timestamp, in Post
// order, so the initial schedule is identical across shard counts.
func (se *ShardedEngine) Post(at Time, ev Event) {
	if se.ran {
		panic("sim: ShardedEngine.Post after Run")
	}
	se.setupSeq++
	if se.setupSeq >= 1<<32 {
		panic("sim: setup event sequence overflow")
	}
	ev.At = at
	ev.pri = se.setupSeq
	sh := se.shards[se.actorShard[ev.To]]
	sh.queue.push(ev)
}

// Now returns the shard's local virtual clock (the timestamp of the
// event being executed).
func (sc *ShardCtx) Now() Time { return sc.now }

// Self returns the ID of the actor currently executing.
func (sc *ShardCtx) Self() ActorID { return sc.cur }

// Post schedules ev at Now()+d. Same-shard events may use any
// non-negative delay; events addressed to an actor on another shard
// must be delayed by at least the engine lookahead (the conservative
// synchronization contract), or Post panics.
func (sc *ShardCtx) Post(d Time, ev Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: sharded Post with negative delay %v", d))
	}
	se := sc.se
	seq := se.actorSeq[sc.cur] + 1
	if seq == 0 {
		// A wrapped sequence would stamp a pri this actor has used
		// before, and (At, pri) would no longer be a total order.
		panic(fmt.Sprintf("sim: actor %d event sequence overflow", sc.cur))
	}
	se.actorSeq[sc.cur] = seq
	ev.At = sc.now + d
	ev.pri = uint64(sc.cur+1)<<32 | uint64(seq)
	ts := se.actorShard[ev.To]
	if int(ts) == sc.id {
		sc.queue.push(ev)
		if n := sc.queue.Len(); n > sc.heapPeak {
			sc.heapPeak = n
		}
		return
	}
	if d < se.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event (actor %d -> %d) with delay %v < lookahead %v",
			sc.cur, ev.To, d, se.lookahead))
	}
	t := se.shards[ts]
	t.inbox = append(t.inbox, ev)
}

// Span records a completed span on the named track of the engine's
// recorder (a nil check without one). Spans on one track are top-level:
// Validate reports any that overlap or arrive out of begin order.
func (sc *ShardCtx) Span(track, name string, start, end Time, bytes int64) {
	if r := sc.se.rec; r != nil {
		t := r.track(track, track)
		t.Spans = append(t.Spans, Span{Name: name, Begin: start, End: end, Bytes: bytes})
	}
}

// drain executes the shard's events with At < end in (At, pri) order.
// Each stays at the root of the heap while its handler runs, so the
// handler's first same-shard Post replaces it in one sift (evQueue).
func (sc *ShardCtx) drain(end Time) {
	for sc.queue.next() < end {
		ev := sc.queue.peek()
		sc.now = ev.At
		sc.cur = ev.To
		sc.events++
		sc.se.handlers[ev.To].HandleEvent(sc, ev)
		sc.queue.settle()
	}
}

// Run executes the simulation until every heap and inbox drains: pick
// the global minimum timestamp T, drain [T, T+lookahead) on each shard
// in index order, merge the inboxes, repeat. Each window advances T by
// at least the lookahead, so the window count is bounded by the
// simulated span divided by the lookahead. A handler's panic is the
// caller's, handler frames on the stack. Run may be called at most once;
// when it returns, the shards' tables go back on the shelf.
func (se *ShardedEngine) Run() {
	if se.ran {
		panic("sim: ShardedEngine.Run called twice")
	}
	se.ran = true
	for {
		T := timeMax
		for _, sh := range se.shards {
			if t := sh.queue.next(); t < T {
				T = t
			}
		}
		if T == timeMax {
			for _, sh := range se.shards {
				shelveTables(&sh.tables)
			}
			return
		}
		end := T + se.lookahead
		if len(se.shards) == 1 {
			end = timeMax // no other shard to hear from: the window is the run
		}
		for _, sh := range se.shards {
			if sh.queue.next() < end {
				sh.drain(end)
				se.now = sh.now
			}
		}
		for _, sh := range se.shards {
			for _, ev := range sh.inbox {
				sh.queue.push(ev)
			}
			sh.inbox = sh.inbox[:0]
			if n := sh.queue.Len(); n > sh.heapPeak {
				sh.heapPeak = n
			}
		}
	}
}

// Events returns the total number of dispatched events.
func (se *ShardedEngine) Events() int64 {
	var n int64
	for _, sh := range se.shards {
		n += sh.events
	}
	return n
}

// HeapPeak returns the largest single-shard pending-event count seen,
// a proxy for the engine's working-set memory.
func (se *ShardedEngine) HeapPeak() int {
	var peak int
	for _, sh := range se.shards {
		if sh.heapPeak > peak {
			peak = sh.heapPeak
		}
	}
	return peak
}
