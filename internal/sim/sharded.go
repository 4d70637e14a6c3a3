package sim

import (
	"fmt"
	"sort"
	"sync"
)

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
//   - The event heap, clock and span/counter recording are partitioned
//     into shards. Each shard owns a disjoint set of actors (in the
//     fat-tree worlds of internal/model, all ranks under one group of
//     leaf switches) and everything those actors touch.
//   - Shards run conservatively in parallel: events are executed in
//     barrier-synchronized windows [T, T+lookahead), where T is the
//     global minimum pending timestamp. Any event crossing a shard
//     boundary must be scheduled at least `lookahead` in the future (in
//     a fat tree, the leaf uplink hop guarantees exactly that), so no
//     shard can receive work inside the window it is executing. Cross-
//     shard events land in a mutex-guarded inbox and are merged into
//     the target heap at the window barrier.
//
// Determinism is independent of the shard count. Events order by
// (At, pri) with the sender-stamped pri described on Event, so the
// per-actor event sequence — and therefore every virtual timestamp —
// is byte-identical for Shards=1 and Shards=N. Shards=1 degenerates to
// a plain serial heap drain (the reference the determinism tests
// compare against).

// ActorID names an actor registered with AddActor. IDs are assigned
// sequentially from zero in registration order.
type ActorID = int32

// Handler is a flyweight actor: all of its state lives in the struct
// implementing the interface, and advances only inside HandleEvent.
// HandleEvent runs on the goroutine of the shard owning the actor; it
// may freely touch any state owned by that shard.
type Handler interface {
	HandleEvent(sc *ShardCtx, ev Event)
}

// ShardSpan is a lock-free span record: each shard appends to its own
// slice; Spans() merges them deterministically after Run.
type ShardSpan struct {
	Track      string
	Name       string
	Start, End Time
	Bytes      int64
}

// ShardCtx is the per-shard execution context handed to HandleEvent.
// It is also the shard itself: heap, clock, inbox and recording all
// live here, giving single-writer access without locks.
type ShardCtx struct {
	se  *ShardedEngine
	id  int
	now Time
	cur ActorID // actor currently executing

	heap  evQueue
	inMu  sync.Mutex
	inbox []Event

	counters map[string]int64
	spans    []ShardSpan
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

	failMu  sync.Mutex
	failure interface{}

	counters map[string]int64
	spans    []ShardSpan
	events   int64
	heapPeak int
}

const timeMax = Time(1) << 62

// NewShardedEngine creates an engine with the given shard count. With
// more than one shard the lookahead must be positive: it is the minimum
// virtual delay of any cross-shard event and the width of the parallel
// execution window.
func NewShardedEngine(shards int, lookahead Time) *ShardedEngine {
	if shards < 1 {
		panic("sim: ShardedEngine needs at least one shard")
	}
	if shards > 1 && lookahead <= 0 {
		panic("sim: ShardedEngine with >1 shard needs a positive lookahead")
	}
	se := &ShardedEngine{lookahead: lookahead}
	for i := 0; i < shards; i++ {
		se.shards = append(se.shards, &ShardCtx{
			se:       se,
			id:       i,
			counters: make(map[string]int64),
		})
	}
	return se
}

// Lookahead returns the conservative window width.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

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
	sh.heap.push(ev)
}

// Now returns the shard's local virtual clock (the timestamp of the
// event being executed).
func (sc *ShardCtx) Now() Time { return sc.now }

// Self returns the ID of the actor currently executing.
func (sc *ShardCtx) Self() ActorID { return sc.cur }

// Shard returns the shard index.
func (sc *ShardCtx) Shard() int { return sc.id }

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
		sc.heap.push(ev)
		if n := sc.heap.Len(); n > sc.heapPeak {
			sc.heapPeak = n
		}
		return
	}
	if d < se.lookahead {
		panic(fmt.Sprintf("sim: cross-shard event (actor %d -> %d) with delay %v < lookahead %v",
			sc.cur, ev.To, d, se.lookahead))
	}
	t := se.shards[ts]
	t.inMu.Lock()
	t.inbox = append(t.inbox, ev)
	t.inMu.Unlock()
}

// Count adds n to a named per-shard counter (merged by Counters()).
func (sc *ShardCtx) Count(name string, n int64) { sc.counters[name] += n }

// Span records a completed span on the shard's lock-free log.
func (sc *ShardCtx) Span(track, name string, start, end Time, bytes int64) {
	sc.spans = append(sc.spans, ShardSpan{Track: track, Name: name, Start: start, End: end, Bytes: bytes})
}

// drain executes the shard's events with At < end in (At, pri) order.
// Each stays at the root of the heap while its handler runs, so the
// handler's first same-shard Post replaces it in one sift (evQueue).
func (sc *ShardCtx) drain(end Time) {
	for sc.heap.next() < end {
		ev := sc.heap.peek()
		sc.now = ev.At
		sc.cur = ev.To
		sc.events++
		sc.se.handlers[ev.To].HandleEvent(sc, ev)
		sc.heap.settle()
	}
}

// Run executes the simulation until every heap and inbox drains. It
// panics (once, on the coordinating goroutine) if any handler panicked.
// Run may be called at most once.
func (se *ShardedEngine) Run() {
	if se.ran {
		panic("sim: ShardedEngine.Run called twice")
	}
	se.ran = true
	if len(se.shards) == 1 {
		// Serial reference path: a single heap drained to completion.
		sh := se.shards[0]
		func() {
			defer se.capture()
			sh.drain(timeMax)
		}()
	} else {
		se.runWindows()
	}
	if se.failure != nil {
		panic(se.failure)
	}
	se.merge()
}

// runWindows is the conservative parallel loop: pick the global minimum
// timestamp T, execute [T, T+lookahead) on every shard concurrently,
// barrier, merge cross-shard inboxes, repeat. Each window advances T by
// at least the lookahead, so the window count is bounded by the
// simulated span divided by the lookahead.
func (se *ShardedEngine) runWindows() {
	for {
		T := timeMax
		for _, sh := range se.shards {
			if t := sh.heap.next(); t < T {
				T = t
			}
		}
		if T == timeMax {
			return
		}
		end := T + se.lookahead
		var wg sync.WaitGroup
		for _, sh := range se.shards {
			if sh.heap.next() >= end {
				continue
			}
			wg.Add(1)
			go func(sh *ShardCtx) {
				defer wg.Done()
				defer se.capture()
				sh.drain(end)
			}(sh)
		}
		wg.Wait()
		if se.failure != nil {
			panic(se.failure)
		}
		for _, sh := range se.shards {
			// All workers are parked at the barrier; the lock is only
			// for the race detector's benefit.
			sh.inMu.Lock()
			for _, ev := range sh.inbox {
				sh.heap.push(ev)
			}
			sh.inbox = sh.inbox[:0]
			if n := sh.heap.Len(); n > sh.heapPeak {
				sh.heapPeak = n
			}
			sh.inMu.Unlock()
		}
	}
}

// capture records a handler panic so Run can re-panic it once.
func (se *ShardedEngine) capture() {
	if r := recover(); r != nil {
		se.failMu.Lock()
		if se.failure == nil {
			se.failure = r
		}
		se.failMu.Unlock()
	}
}

// merge folds the per-shard records into engine-level views.
func (se *ShardedEngine) merge() {
	se.counters = make(map[string]int64)
	for _, sh := range se.shards {
		for k, v := range sh.counters {
			se.counters[k] += v
		}
		se.spans = append(se.spans, sh.spans...)
		se.events += sh.events
		if sh.heapPeak > se.heapPeak {
			se.heapPeak = sh.heapPeak
		}
	}
	sort.Slice(se.spans, func(i, j int) bool {
		a, b := se.spans[i], se.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.End < b.End
	})
}

// Counters returns the merged named counters (valid after Run).
func (se *ShardedEngine) Counters() map[string]int64 { return se.counters }

// Spans returns the merged span log, deterministically ordered.
func (se *ShardedEngine) Spans() []ShardSpan { return se.spans }

// Events returns the total number of dispatched events.
func (se *ShardedEngine) Events() int64 { return se.events }

// HeapPeak returns the largest single-shard pending-event count seen,
// a proxy for the engine's working-set memory.
func (se *ShardedEngine) HeapPeak() int { return se.heapPeak }
