package model

import (
	"fmt"

	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// A phase is one of internal/mpi's schedules run over one tier of the
// world: a flat collective is one phase over every rank, a hierarchical
// one a node phase, a leader phase and a node phase, as in hcoll.go.
// Every message of a phase has the same size; a Copy step costs copy;
// a member contributes width consecutive source blocks.
type phase struct {
	alg   mpi.Alg
	tier  tier
	bytes int64
	copy  sim.Time
	width int
}

// tier is who a phase's members are: member i is rank i of the world,
// rank i of the caller's node, or the leader (first rank) of node i.
type tier uint8

const (
	tierAll tier = iota
	tierNode
	tierLeaders
)

// phases are the world's collective as schedules: build decides them
// once. A leader stages its members' whole send buffers and hands back
// their columns at 2*packCost each way; the other local moves are free.
func (w *world) phases() []phase {
	whole := int64(w.p) * w.b
	slab := int64(w.rpn) * w.b
	switch {
	case w.flat && w.a2a:
		return []phase{{mpi.Pairwise, tierAll, w.b, 2 * w.packCost(w.b), 1}}
	case w.flat:
		return []phase{{mpi.Ring, tierAll, w.b, 0, 1}}
	case w.a2a:
		stage := 2 * w.packCost(whole)
		return []phase{{mpi.Gather, tierNode, whole, stage, 1}, {mpi.Pairwise, tierLeaders, int64(w.rpn) * slab, 0, w.rpn},
			{mpi.Scatter, tierNode, whole, stage, 1}}
	}
	return []phase{{mpi.Gather, tierNode, w.b, 0, 1}, {mpi.Ring, tierLeaders, slab, 0, w.rpn}, {mpi.Bcast, tierNode, whole, 0, 1}}
}

// sched is rank r's schedule in phase ph; in is false when r is not a
// member of the phase's tier (a non-leader in the leader phase).
func (w *world) sched(ph *phase, r sim.ActorID) (s mpi.Sched, in bool) {
	switch ph.tier {
	case tierNode:
		return mpi.Sched{Alg: ph.alg, N: w.rpn, Me: int(r) % w.rpn}, true
	case tierLeaders:
		return mpi.Sched{Alg: ph.alg, N: w.nodes, Me: w.nodeOf(r)}, int(r)%w.rpn == 0
	}
	return mpi.Sched{Alg: ph.alg, N: w.p, Me: int(r)}, true
}

// member is the rank of member i of phase ph as rank r sees it.
func (w *world) member(ph *phase, r sim.ActorID, i int) sim.ActorID {
	switch ph.tier {
	case tierNode:
		return r - r%sim.ActorID(w.rpn) + sim.ActorID(i)
	case tierLeaders:
		return sim.ActorID(i * w.rpn)
	}
	return sim.ActorID(i)
}

// rankSM is one rank's flyweight executor: the entire per-rank
// footprint of a modelled world (compare with a real rank's goroutine,
// stacks and device buffers). It walks the rank's steps of each phase
// in turn, as walk does on the real stack, and prices each one: a send
// with world.send, a landing with world.land, a Copy with the phase's
// copy. A Wait holds the rank until every receive it posted in the phase
// has landed; a WaitSend until its send is off the wire.
type rankSM struct {
	w       *world
	r       sim.ActorID
	phase   int8  // index into w.ph; len(w.ph) once finished
	sending bool  // a WaitSend's wake is pending
	done    bool  // finish has run
	step    int32 // the next step of the phase
	posted  int32 // receives posted in the phase
	got     int32 // blocks landed in the phase
	ahead   int32 // blocks landed for the next phase
}

// HandleEvent takes one event and walks on as far as the schedule lets.
// Kind 0 wakes the rank: its start, its WaitSend's send off the wire, or
// its last post-ahead block unpacked (world.land). Otherwise Kind is the
// phase (plus one) of a message: the WaitSend wake of a spine-crossing
// send, which departs now, a message at its relay, or a delivered one.
func (a *rankSM) HandleEvent(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch {
	case ev.B == atRelay:
		w.relay(sc, ev)
		return
	case ev.B == departing: // now is when it left: on to the relay
		ev.To, ev.From, ev.B = ev.From, a.r, atRelay
		sc.Post(w.lat/2+w.hopLat, ev)
		a.sending = false
	case ev.Kind == 0:
		a.sending = false
	default:
		ph := int8(ev.Kind - 1)
		w.arrive(a.r, sc.Now(), ev.A)
		w.receive(&w.ph[ph], ev)
		a.landed(ph)
	}
	a.walk(sc)
}

// landed counts a block of phase ph landed at the rank.
func (a *rankSM) landed(ph int8) {
	switch ph {
	case a.phase:
		a.got++
	case a.phase + 1:
		a.ahead++ // a neighbour ran ahead of this rank's own phase
	default:
		panic(fmt.Sprintf("model: rank %d in phase %d got a phase-%d block", a.r, a.phase, ph))
	}
}

// waits reports whether the rank is held at the last step of phase ph
// (a Wait) with every block it posted now landed: nothing but a wake
// moves it on.
func (a *rankSM) waits(ph int8) bool {
	if ph != a.phase || a.sending || a.got != a.posted {
		return false
	}
	s, _ := a.w.sched(&a.w.ph[ph], a.r)
	return int(a.step) == s.Len()-1
}

// walk executes steps until one must wait, or the last phase ends. On
// its first step in a phase over all ranks or over the leaders, a rank
// marks the blocks it holds already: its own, or its node's.
func (a *rankSM) walk(sc *sim.ShardCtx) {
	if a.sending {
		return // a block landed while the rank waits for its send
	}
	w := a.w
	for int(a.phase) < len(w.ph) {
		ph := &w.ph[a.phase]
		s, in := w.sched(ph, a.r)
		n := 0
		if in {
			n = s.Len()
			if a.step == 0 && ph.tier != tierNode {
				w.mark(a.r, s.Me*ph.width, ph.width)
			}
		}
		for ; int(a.step) < n; a.step++ {
			switch st := s.Step(int(a.step)); st.Op {
			case mpi.OpRecv:
				a.posted++
			case mpi.OpSend:
				w.send(sc, a.r, w.member(ph, a.r, st.Peer), a.phase, int32(st.Block), ph.bytes)
			case mpi.OpCopy:
				if ph.copy > 0 {
					w.cpu[a.r] = max(w.cpu[a.r], sc.Now()) + ph.copy
				}
			case mpi.OpWaitSend:
				if !a.sending { // no spine crossed: no departure to wake with
					sc.Post(w.lastSend[a.r]-sc.Now(), sim.Event{To: a.r})
					a.sending = true
				}
				a.step++
				return
			case mpi.OpWait:
				if a.got < a.posted {
					return
				}
				w.cpu[a.r] = max(w.cpu[a.r], w.rx[a.r]) // every block is unpacked
			}
		}
		a.phase++
		a.step, a.posted, a.got, a.ahead = 0, 0, a.ahead, 0
	}
	if !a.done {
		a.finish(sc)
	}
}

// finish records the rank's completion time: the later of its CPU
// clock and its last injected send.
func (a *rankSM) finish(sc *sim.ShardCtx) {
	w := a.w
	d := max(w.cpu[a.r], w.lastSend[a.r], sc.Now())
	w.doneAt[a.r] = d
	a.done = true
	if w.o.RecordSpans {
		sc.Span(fmt.Sprintf("rank%d", a.r), w.o.Coll, 0, d, int64(w.p)*w.b)
	}
}
