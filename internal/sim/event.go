package sim

import "math/bits"

// Event is the one queued-event type, ordered by (At, pri). ShardedEngine
// delivers it to an actor: Kind, From, Round, A, B and Sig are
// uninterpreted by that engine and carry the model's message identity
// (payload bytes, schedule round, content signature, ...) without
// allocating. Engine queues it for itself: Kind says whether To is a
// process to resume or an After callback to run.
//
// pri is the only thing the two engines supply separately, because each
// needs its own tie-break at equal timestamps. Engine stamps a global
// schedule sequence: same-instant events run first-scheduled-first, the
// order every golden figure records. ShardCtx.Post stamps
// (senderActor+1)<<32 | senderSeq, and setup events posted before Run
// count up from 1: functions of the simulation's own history, where a
// global sequence would make timestamps depend on the shard count.
type Event struct {
	At    Time
	pri   uint64
	To    ActorID
	Kind  int32
	From  ActorID
	Round int32
	A, B  int64
	Sig   uint64
}

// evLess orders events by (At, pri). pri is globally unique, so the
// order is total and independent of heap internals.
func evLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.pri < b.pri
}

// evLessBit is evLess as 0 or 1 without a branch: the borrow out of the
// 128-bit subtraction a.(At:pri) - b.(At:pri), At biased to unsigned.
// evQueue.sink adds it to an index where a branch on evLess would
// mispredict half the time.
func evLessBit(a, b *Event) int {
	_, br := bits.Sub64(a.pri, b.pri, 0)
	_, br = bits.Sub64(uint64(a.At)^(1<<63), uint64(b.At)^(1<<63), br)
	return int(br)
}

// evQueue is the one pending-event queue, drained by both engines: a
// hand-rolled binary min-heap over value events — no interface boxing,
// no per-event allocation, no closures; the inner loop of a 500M-event
// simulation. Both sifts move a hole: the travelling event stays in a
// local while parents (or children) slide into the gap, so each level
// costs one 56-byte copy, not the three of a swap. sink picks the
// smaller child by arithmetic on evLessBit; the comparison against the
// sinking event stays a branch because it almost always goes the same
// way (the event came from the bottom, or is later than all it passes).
//
// An engine does not pop the event it runs. It peeks: the minimum stays
// at the root, marked open, while its handler executes. Nearly every
// handler answers its event with exactly one push — a round arrival
// sends the next round, a relay re-posts its delivery, a sleeper queues
// its wake-up — and that first push is written over the open root and
// sunk from there: one sift where pop-then-push does two. settle closes
// a root no push claimed with the ordinary pop. Which events come out,
// and in what order, is that of any priority queue over (At, pri).
type evQueue struct {
	s    []Event
	open bool // s[0] is the event being run: a hole the next push fills
}

// Len counts the pending events, the open root among them: a push into
// the hole leaves the count where pop-then-push would.
func (q *evQueue) Len() int { return len(q.s) }

// next is the timestamp of the minimum, or timeMax for an empty queue.
func (q *evQueue) next() Time {
	if len(q.s) == 0 {
		return timeMax
	}
	return q.s[0].At
}

// peek returns the minimum and leaves it at the root, open, until a
// push or settle closes it. The queue must not be empty.
func (q *evQueue) peek() Event {
	q.open = true
	return q.s[0]
}

// push queues ev: into the open root if there is one, else at the
// bottom, sifted up.
func (q *evQueue) push(ev Event) {
	if q.open {
		q.open = false
		q.sink(ev)
		return
	}
	s := append(q.s, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(ev, s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = ev
	q.s = s
}

// settle removes the peeked event if no push has taken its place.
func (q *evQueue) settle() {
	if !q.open {
		return
	}
	q.open = false
	n := len(q.s) - 1
	ev := q.s[n]
	q.s = q.s[:n]
	if n > 0 {
		q.sink(ev)
	}
}

// sink places ev in the heap whose root is a hole.
func (q *evQueue) sink(ev Event) {
	s := q.s
	n := len(s)
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n {
			m += evLessBit(&s[r], &s[m])
		}
		if !evLess(s[m], ev) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = ev
}
