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
// evPop adds it to an index where a branch on evLess would mispredict
// half the time.
func evLessBit(a, b *Event) int {
	_, br := bits.Sub64(a.pri, b.pri, 0)
	_, br = bits.Sub64(uint64(a.At)^(1<<63), uint64(b.At)^(1<<63), br)
	return int(br)
}

// evPush / evPop are a hand-rolled binary min-heap over value events:
// no interface boxing, no per-event allocation, no closures — the inner
// loop of a 500M-event simulation. Both sift a hole: the moving event
// stays in a local while parents (or children) slide into the gap, so
// each level costs one 56-byte copy, not the three of a swap. evPop
// picks the smaller child by arithmetic on evLessBit; the comparison
// against the sinking event stays a branch because it almost always
// goes the same way (the event came from the bottom).
func evPush(h *[]Event, ev Event) {
	s := append(*h, ev)
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
	*h = s
}

func evPop(h *[]Event) Event {
	s := *h
	top := s[0]
	n := len(s) - 1
	ev := s[n]
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
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
	return top
}
