package model

import (
	"fmt"

	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// Event kinds. kStart seeds every rank at t=0; everything else is a
// modelled message whose schedule role the receiver decodes from
// (Kind, From, Round).
const (
	kStart   int32 = iota + 1
	kA2A           // flat alltoall: pairwise round payload
	kAG            // flat allgather: ring hop payload
	kA2AIn         // hier alltoall: member's whole send buffer -> leader
	kA2ANode       // hier alltoall: leader<->leader node block
	kA2ACol        // hier alltoall: leader -> member result column
	kAGIn          // hier allgather: member contribution -> leader
	kAGSlab        // hier allgather: leader ring node slab
	kAGBcast       // hier allgather: assembled buffer down the node tree
)

// rankSM is one rank's flyweight state machine: the entire per-rank
// footprint of a modelled world (compare with a real rank's goroutine,
// stacks and device buffers). The schedules mirror internal/mpi —
// flat pairwise alltoall and ring allgather, and the hierarchical
// leader-based variants of hcoll.go — so the modelled message pattern
// is the one the real worlds execute.
type rankSM struct {
	w    *world
	r    sim.ActorID
	node int
	li   int         // index within the node (0 = leader)
	lead sim.ActorID // node leader's rank

	round int32
	gotIn int32
	pend  map[int32]struct{} // rounds that arrived early; nil until one does
	done  bool
	open  bool // startRounds has run: round is the round being waited for
}

// HandleEvent dispatches relay stages and the collective's schedule.
func (a *rankSM) HandleEvent(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch {
	case ev.B == 1:
		w.relay(sc, ev)
	case w.a2a && w.flat:
		a.a2aFlat(sc, ev)
	case w.a2a:
		a.a2aHier(sc, ev)
	case w.flat:
		a.agFlat(sc, ev)
	default:
		a.agHier(sc, ev)
	}
}

// finish records the rank's completion time: the later of its CPU
// clock and its last injected send.
func (a *rankSM) finish(sc *sim.ShardCtx) {
	w := a.w
	d := w.cpu[a.r]
	if w.lastSend[a.r] > d {
		d = w.lastSend[a.r]
	}
	if t := sc.Now(); t > d {
		d = t
	}
	w.doneAt[a.r] = d
	a.done = true
	if w.o.RecordSpans {
		sc.Span(fmt.Sprintf("rank%d", a.r), w.o.Coll, 0, d, int64(w.p)*w.b)
	}
}

// pendSet/pendHas/pendClear track early round arrivals: the pairwise
// and ring schedules complete round s only after the round-s message
// arrives, but the network may deliver s+1 first, and a leader's first
// slab before its own members have reported in. Rounds that arrive in
// order never come here, so most ranks never make the map.
func (a *rankSM) pendSet(s int32) {
	if a.pend == nil {
		a.pend = make(map[int32]struct{}, 4)
	}
	a.pend[s] = struct{}{}
}

func (a *rankSM) pendHas(s int32) bool {
	_, ok := a.pend[s]
	return ok
}

func (a *rankSM) pendClear(s int32) { delete(a.pend, s) }

// level is the tier a round schedule runs over, and the schedule's
// shape there: every rank for the flat collectives, one leader per node
// for the hierarchical ones. Peer i is rank i*stride and contributes
// width consecutive source blocks, so one arrival marks blocks
// [i*width, (i+1)*width). Rounds run [first, end) — the pairwise
// exchange numbers its n-1 rounds from 1 (round s pairs with
// mpi.PairwisePeers(n, me, s)), the ring from 0 — and each sends one
// message of the given kind and size. Only me differs between the ranks
// of a world: build decides the rest once (world.lv).
type level struct {
	n, me         int
	stride, width int
	kind          int32
	first, end    int32
	bytes         int64
}

// newLevel is the world's level with me left for each rank to fill in.
func (w *world) newLevel() level {
	lv := level{n: w.nodes, stride: w.rpn, width: w.rpn}
	if w.flat {
		lv = level{n: w.p, stride: 1, width: 1}
	}
	// A ring hop carries the peer's width blocks; a pairwise round
	// carries them once for each of the partner's width ranks.
	lv.first, lv.end, lv.bytes = 0, int32(lv.n-1), int64(lv.width)*w.b
	if w.a2a {
		lv.first, lv.end, lv.bytes = 1, int32(lv.n), lv.bytes*int64(lv.width)
	}
	switch {
	case w.flat && w.a2a:
		lv.kind = kA2A
	case w.flat:
		lv.kind = kAG
	case w.a2a:
		lv.kind = kA2ANode
	default:
		lv.kind = kAGSlab
	}
	return lv
}

// level is the world's level as this rank sees it.
func (a *rankSM) level() level {
	lv := a.w.lv
	lv.me = a.node
	if a.w.flat {
		lv.me = int(a.r)
	}
	return lv
}

// startRounds opens the round schedule, or skips it at a level of one:
// send the first round, then catch up on rounds that arrived before
// this rank was ready for them.
func (a *rankSM) startRounds(sc *sim.ShardCtx) {
	lv := a.level()
	a.open = true
	if lv.n == 1 {
		a.roundsDone(sc)
		return
	}
	a.round = lv.first
	a.sendRound(sc, lv, a.round)
	a.catchUp(sc, lv)
}

// sendRound posts the caller's round-s message: to the round's pairwise
// partner, or around the ring to the right neighbour.
func (a *rankSM) sendRound(sc *sim.ShardCtx, lv level, s int32) {
	to := (lv.me + 1) % lv.n
	if a.w.a2a {
		to, _ = mpi.PairwisePeers(lv.n, lv.me, int(s))
	}
	a.w.send(sc, a.r, sim.ActorID(to*lv.stride), lv.kind, s, lv.bytes)
}

// roundArrived handles one round message: mark the source blocks it
// carries — the sender's own in a pairwise round, those of the peer
// `round` hops upstream in a ring round — then, if it is the round this
// rank waits for, complete it and every later round whose message is
// already here. A message for any other round, or for a rank whose
// schedule has not opened (a leader still collecting its members'
// buffers when a neighbour's slab lands), is only recorded.
func (a *rankSM) roundArrived(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	lv := a.level()
	w.arrive(sc, a.r, ev.A)
	w.verify(a.r, ev)
	src := int(ev.From) / lv.stride
	if !w.a2a {
		src = (src - int(ev.Round)%lv.n + lv.n) % lv.n
	}
	w.mark(a.r, src*lv.width, lv.width)
	if !a.open || ev.Round != a.round {
		a.pendSet(ev.Round)
		return
	}
	a.completeRound(sc, lv)
	a.catchUp(sc, lv)
}

// completeRound moves past the round being waited for: send the next
// one, or end the schedule.
func (a *rankSM) completeRound(sc *sim.ShardCtx, lv level) {
	a.round++
	if a.round < lv.end {
		a.sendRound(sc, lv, a.round)
	} else {
		a.roundsDone(sc)
	}
}

// catchUp completes every round whose message arrived early.
func (a *rankSM) catchUp(sc *sim.ShardCtx, lv level) {
	for len(a.pend) > 0 && a.pendHas(a.round) {
		a.pendClear(a.round)
		a.completeRound(sc, lv)
	}
}

// roundsDone ends the round schedule: a flat rank is finished, a leader
// moves on to its node's last phase.
func (a *rankSM) roundsDone(sc *sim.ShardCtx) {
	switch {
	case a.w.flat:
		a.finish(sc)
	case a.w.a2a:
		a.a2aScatter(sc)
	default:
		a.forwardBcast(sc)
		a.finish(sc)
	}
}

// --- flat alltoall: pairwise exchange -------------------------------

func (a *rankSM) a2aFlat(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		// Local copy of the self block, then round 1.
		w.mark(a.r, int(a.r), 1)
		w.cpu[a.r] = sc.Now() + 2*w.packCost(w.b)
		a.startRounds(sc)
	case kA2A:
		a.roundArrived(sc, ev)
	default:
		panic(fmt.Sprintf("model: flat alltoall rank %d got kind %d", a.r, ev.Kind))
	}
}

// --- flat allgather: ring -------------------------------------------

func (a *rankSM) agFlat(sc *sim.ShardCtx, ev sim.Event) {
	switch ev.Kind {
	case kStart:
		a.w.mark(a.r, int(a.r), 1)
		a.startRounds(sc)
	case kAG:
		a.roundArrived(sc, ev)
	default:
		panic(fmt.Sprintf("model: flat allgather rank %d got kind %d", a.r, ev.Kind))
	}
}

// --- hierarchical alltoall: gather, leader pairwise, scatter --------

func (a *rankSM) a2aHier(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		if a.li != 0 {
			// Member: ship the whole send buffer to the leader, then
			// wait for the result column.
			w.send(sc, a.r, a.lead, kA2AIn, 0, int64(w.p)*w.b)
			return
		}
		// Leader: stage own buffer; the local node block (own-node
		// sources into own image) is exchanged in staging memory.
		w.cpu[a.r] = sc.Now() + 2*w.packCost(int64(w.p)*w.b)
		w.mark(a.r, a.node*w.rpn, w.rpn)
		if w.rpn == 1 {
			a.startRounds(sc)
		}
	case kA2AIn:
		w.arrive(sc, a.r, ev.A)
		w.verify(a.r, ev)
		a.gotIn++
		if int(a.gotIn) == w.rpn-1 {
			a.startRounds(sc)
		}
	case kA2ANode:
		a.roundArrived(sc, ev)
	case kA2ACol:
		w.arrive(sc, a.r, ev.A)
		w.verify(a.r, ev)
		w.mark(a.r, 0, w.p)
		a.finish(sc)
	default:
		panic(fmt.Sprintf("model: hier alltoall rank %d got kind %d", a.r, ev.Kind))
	}
}

// a2aScatter is phase 3: the leader sends each member its result
// column and keeps its own by local copy.
func (a *rankSM) a2aScatter(sc *sim.ShardCtx) {
	w := a.w
	for di := 1; di < w.rpn; di++ {
		w.send(sc, a.r, a.lead+sim.ActorID(di), kA2ACol, 0, int64(w.p)*w.b)
	}
	if t := sc.Now(); t > w.cpu[a.r] {
		w.cpu[a.r] = t
	}
	w.cpu[a.r] += 2 * w.packCost(int64(w.p)*w.b)
	a.finish(sc)
}

// --- hierarchical allgather: gather, leader ring, broadcast ---------

func (a *rankSM) agHier(sc *sim.ShardCtx, ev sim.Event) {
	w := a.w
	switch ev.Kind {
	case kStart:
		if a.li != 0 {
			w.send(sc, a.r, a.lead, kAGIn, 0, w.b)
			return
		}
		w.mark(a.r, int(a.r), 1)
		if w.rpn == 1 {
			a.startRounds(sc)
		}
	case kAGIn:
		w.arrive(sc, a.r, ev.A)
		w.verify(a.r, ev)
		w.mark(a.r, int(ev.From), 1)
		a.gotIn++
		if int(a.gotIn) == w.rpn-1 {
			a.startRounds(sc)
		}
	case kAGSlab:
		a.roundArrived(sc, ev)
	case kAGBcast:
		w.arrive(sc, a.r, ev.A)
		w.verify(a.r, ev)
		w.mark(a.r, 0, w.p)
		a.forwardBcast(sc)
		a.finish(sc)
	default:
		panic(fmt.Sprintf("model: hier allgather rank %d got kind %d", a.r, ev.Kind))
	}
}

// forwardBcast sends the assembled buffer to this rank's children in
// the intra-node binomial broadcast tree (the leader is virtual rank 0),
// largest subtree first, as the real bcastTree does.
func (a *rankSM) forwardBcast(sc *sim.ShardCtx) {
	w := a.w
	_, span := mpi.BinomialTree(w.rpn, a.li)
	for k := span >> 1; k > 0; k >>= 1 {
		if a.li+k < w.rpn {
			w.send(sc, a.r, a.lead+sim.ActorID(a.li+k), kAGBcast, 0, int64(w.p)*w.b)
		}
	}
}
