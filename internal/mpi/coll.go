package mpi

import (
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Collectives built on the datatype-aware point-to-point layer. The
// paper's conclusion positions the GPU datatype engine as the substrate
// for "any point-to-point, collective, I/O and one-sided" operation;
// these collectives demonstrate that the engine composes: every hop
// packs/unpacks GPU-resident non-contiguous data through the same
// pipelined protocols.
//
// Each algorithm is written once, in this file, over a communicator
// view (comm: who the ranks are) and per-peer block views (view: where
// the blocks are). The world, node-local, leader and Group entry
// points, regular and v-variant alike, are callers of these functions.
// Every algorithm takes an explicit *sim.Proc and a pre-reserved tag
// block: the public blocking entry points pass the rank's main process,
// while the nonblocking Iallgatherv (icoll.go) reserves tags at call
// time and runs the same schedule on a spawned progress process. The
// pairwise exchange, the ring, the gather and scatter and the broadcast
// tree are schedule values (sched.go) that walk posts through a request
// batch (batch); the functions here hold and stage around them.
//
// A block stays packed while a collective holds it (hold.go): where an
// algorithm below would make the rank launch two kernels or more for
// eager-sized blocks, it runs over a wire-format stage instead.

// collTagBase keeps collective traffic out of the user's tag space.
const collTagBase = 1 << 20

// tagBlock reserves n consecutive collective tags and returns the
// first. Reservation happens at call time — before any nonblocking
// schedule is spawned — so concurrent collectives draw disjoint tag
// ranges and every rank advances collSeq identically. Budgets depend
// only on the world size, never on the data or topology path taken, so
// the reservation is symmetric across ranks by construction.
func (m *Rank) tagBlock(n int) int {
	t := collTagBase + m.collSeq
	m.collSeq += n
	return t
}

// Per-collective tag budgets (see tagBlock). Each is the worst case of
// the flat and hierarchical schedules for that operation.
func (m *Rank) bcastTags() int     { return 2 }
func (m *Rank) allgatherTags() int { return 2 * m.Size() }
func (m *Rank) alltoallTags() int  { return 2 * m.Size() }
func (m *Rank) reduceTags() int    { return 2 * m.Size() }

// comm is the communicator view an algorithm runs over: an ordered set
// of n world ranks and the caller's index me in it. Member i is
// base+i*step, except index act which is actRank (the collective root
// leading its own node), or ranks[i] when the view borrows a Group's
// member list. Passed by value; building one allocates nothing.
type comm struct {
	n, me        int
	base, step   int
	act, actRank int
	ranks        []int
}

func (c comm) rank(i int) int {
	switch {
	case c.ranks != nil:
		return c.ranks[i]
	case i == c.act:
		return c.actRank
	}
	return c.base + i*c.step
}

// worldComm is every rank, in rank order.
func (m *Rank) worldComm() comm {
	return comm{n: m.Size(), me: m.rank, step: 1, act: -1}
}

// nodeComm is the caller's node: rpn consecutive ranks of a blocked
// layout, the node's first rank at index 0.
func (m *Rank) nodeComm() comm {
	rpn := m.w.hier.rpn
	return comm{n: rpn, me: m.rank % rpn, base: m.rank - m.rank%rpn, step: 1, act: -1}
}

// leaderComm is one rank per node, in node order, speaking for the node
// on the IB tier: the node's first rank, except that root (when >= 0)
// leads its own node, saving an intra-node forward of the root's data.
// me is the caller's node, so rank(me) is the caller's acting leader;
// only leaders may run an algorithm over it.
func (m *Rank) leaderComm(root int) comm {
	h := m.w.hier
	c := comm{n: h.nodes, me: m.rank / h.rpn, step: h.rpn, act: -1}
	if root >= 0 {
		c.act, c.actRank = root/h.rpn, root
	}
	return c
}

// comm views the group from member m, in group order.
func (g *Group) comm(m *Rank) comm {
	return comm{n: len(g.ranks), me: g.LocalRank(m), ranks: g.ranks}
}

// view locates block i of a send or receive side: its memory, datatype
// and element count. A block whose packed size is zero posts no message
// on either side of any algorithm (both sides agree because the counts
// are part of the collective's signature, as in MPI).
type view func(i int) (mem.Buffer, *datatype.Datatype, int)

// uniformView is the regular layout: block i is count elements of dt
// starting i*count*extent into buf.
func uniformView(buf mem.Buffer, dt *datatype.Datatype, count int) view {
	return func(i int) (mem.Buffer, *datatype.Datatype, int) {
		return vslot(buf, dt, count, i*count), dt, count
	}
}

// vectorView is the irregular ("v") layout: block i is counts[i]
// elements of dt starting displs[i] extents into buf. An empty block
// has no memory: its displacement is never looked at.
func vectorView(buf mem.Buffer, dt *datatype.Datatype, counts, displs []int) view {
	return func(i int) (mem.Buffer, *datatype.Datatype, int) {
		if counts[i] == 0 {
			return mem.Buffer{}, dt, 0
		}
		return vslot(buf, dt, counts[i], displs[i]), dt, counts[i]
	}
}

// packedSize is the wire size of (dt, count); a zero count may carry a
// nil datatype.
func packedSize(dt *datatype.Datatype, count int) int64 {
	if count == 0 {
		return 0
	}
	return int64(count) * dt.Size()
}

// batch is one step's requests over a communicator, posted in the
// caller's order and waited for together (DESIGN decision 29); a
// zero-size block posts nothing. Schedules running on one rank at once
// take batches of their own from the rank's pool.
type batch struct {
	m            *Rank
	c            comm
	sends, recvs []*Request
}

// batch takes an empty batch over c from the rank's pool, or a new one.
func (m *Rank) batch(c comm) *batch {
	k := len(m.batches) - 1
	if k < 0 {
		return &batch{m: m, c: c}
	}
	b := m.batches[k]
	b.m, b.c, m.batches[k], m.batches = m, c, nil, m.batches[:k]
	return b
}

// send posts count elements of dt from buf to member to, from p.
func (b *batch) send(p *sim.Proc, buf mem.Buffer, dt *datatype.Datatype, count, to, tag int) *batch {
	if n := packedSize(dt, count); n > 0 {
		if sent := b.m.w.sent; sent != nil {
			sent(b.m.rank, b.c.rank(to), n)
		}
		b.sends = append(b.sends, b.m.isendOn(p, buf, dt, count, b.c.rank(to), tag))
	}
	return b
}

// recv posts the receive of count elements of dt into buf from member from.
func (b *batch) recv(buf mem.Buffer, dt *datatype.Datatype, count, from, tag int) *batch {
	if packedSize(dt, count) > 0 {
		b.recvs = append(b.recvs, b.m.irecv(buf, dt, count, b.c.rank(from), tag))
	}
	return b
}

// wait is await, then pools b.
func (b *batch) wait(p *sim.Proc, what string) {
	m := b.m
	b.await(p, what)
	b.m, b.c = nil, comm{}
	m.batches = append(m.batches, b)
}

// await waits for the sends, then the receives, in posting order; fails
// what on a receive short of its block; releases every record. b is
// empty after it, ready for the next step's requests.
func (b *batch) await(p *sim.Proc, what string) {
	b.awaitSends(p)
	for _, rq := range b.recvs {
		op := rq.rec.(*recvReq).op // read before await lets the record go
		b.m.wholeBlock(what, op.Src, await(p, rq), op.Dt, op.Count)
	}
	clear(b.recvs)
	b.recvs = b.recvs[:0]
}

// awaitSends waits for the sends alone, in posting order, and releases
// them; the receives stay posted.
func (b *batch) awaitSends(p *sim.Proc) {
	for _, rq := range b.sends {
		await(p, rq)
	}
	clear(b.sends)
	b.sends = b.sends[:0]
}

// walk runs schedule s over c on p, every request through one batch:
// Recv and Send post block Block of recv or send to or from member Peer
// on tag+Tag, the waits wait for the batch, and Copy calls copy (nil:
// the caller's block is already in place).
func (m *Rank) walk(p *sim.Proc, what string, c comm, s Sched, send, recv view, tag int, copy func()) {
	b := m.batch(c)
	for i, n := 0, s.Len(); i < n; i++ {
		switch st := s.Step(i); st.Op {
		case OpRecv:
			buf, dt, count := recv(st.Block)
			b.recv(buf, dt, count, st.Peer, tag+st.Tag)
		case OpSend:
			buf, dt, count := send(st.Block)
			b.send(p, buf, dt, count, st.Peer, tag+st.Tag)
		case OpCopy:
			if copy != nil {
				copy()
			}
		case OpWaitSend:
			b.awaitSends(p)
		case OpWait:
			b.await(p, what)
		}
	}
	b.wait(p, what)
}

// one views a single block as every block index.
func one(buf mem.Buffer, dt *datatype.Datatype, count int) view {
	return func(int) (mem.Buffer, *datatype.Datatype, int) { return buf, dt, count }
}

// PairwisePeers returns the round-s exchange partners of index r among
// n peers: the recursive-doubling XOR pairing when n is a power of two,
// the shifted ring otherwise. Rounds run 1..n-1 (Pairwise's steps).
func PairwisePeers(n, r, s int) (to, from int) {
	if n&(n-1) == 0 {
		return r ^ s, r ^ s
	}
	return (r + s) % n, (r - s + n) % n
}

// BinomialTree places virtual rank v (the root is 0) in the binomial
// tree over n members: parent is v with its lowest set bit cleared (-1
// for the root), and v's children are v+k for every power of two k <
// span with v+k < n. A broadcast forwards to them in decreasing k
// (largest subtree first), a reduction folds them in increasing k.
func BinomialTree(n, v int) (parent, span int) {
	mask := 1
	for mask < n {
		if v&mask != 0 {
			return v &^ mask, mask
		}
		mask <<= 1
	}
	return -1, mask
}

// bcastTree broadcasts (buf, dt, count) from member rootIdx over the
// binomial tree, on a single tag (every hop is a distinct rank pair).
// Every member must call it. A member that would launch twice or more
// for the block — the root of several children, an interior member —
// holds it packed: received into the stage, forwarded from there, and
// unpacked once its subtree is served.
func (m *Rank) bcastTree(p *sim.Proc, what string, c comm, rootIdx int, buf mem.Buffer, dt *datatype.Datatype, count, tag int) {
	if c.n <= 1 {
		return
	}
	s := Sched{Alg: Bcast, N: c.n, Me: c.me, Root: rootIdx}
	root := c.me == rootIdx
	st, buf, dt, count := m.holdBlock(s.Len()/2, buf, dt, count) // a wait per transfer
	if root {
		m.packHeld(p, st)
	}
	block := one(buf, dt, count)
	m.walk(p, what, c, s, block, block, tag, nil)
	if !root {
		m.unpackHeld(p, st)
	}
	m.release(st)
}

// reduceTree combines every member's acc — already holding its
// contribution — into member rootIdx's acc over the broadcast's
// binomial tree, folding the children smallest subtree first.
// Per-child messages are tagged tag + sender's world rank, and each
// must bring a whole block: a shorter one fails the collective what
// rather than fold a stale tail. Every member must call it.
func (m *Rank) reduceTree(p *sim.Proc, what string, c comm, rootIdx int, acc mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op, tag int) {
	if c.n <= 1 {
		return
	}
	v, parent, kmax := Sched{Alg: Bcast, N: c.n, Me: c.me, Root: rootIdx}.tree()
	at := func(v int) int { return c.rank((v + rootIdx) % c.n) }
	var tmp mem.Buffer
	for k := 1; k <= kmax; k <<= 1 {
		if !tmp.IsValid() {
			tmp = m.take(acc.Space(), acc.Len())
		}
		child := at(v + k)
		m.recvBlock(p, what, tmp, dt, count, child, tag+child)
		m.combine(p, acc, tmp, prim, op)
	}
	if parent >= 0 {
		m.sendOn(p, acc, dt, count, at(parent), tag+m.rank)
	}
	if tmp.IsValid() {
		m.give(tmp)
	}
}

// ringAllgather circulates the members' blocks around the ring: in step
// s the caller forwards block (me-s) to its right neighbour and
// receives block (me-s-1) from its left, on tag+s. Its own block leaves
// its memory once, so it is sent from there; every block it receives
// costs an unpack and — all but the last — a pack to forward it, so
// from three members up they are held and unpacked together at the end.
func (m *Rank) ringAllgather(p *sim.Proc, what string, c comm, blocks view, tag int) {
	if c.n <= 1 {
		return
	}
	final := (c.me + 1) % c.n // received in the last step, never forwarded
	st := m.hold(c.n, blocks, func(i int) int {
		switch i {
		case c.me:
			return 0
		case final:
			return 1
		}
		return 2
	})
	blocks = st.over(blocks)
	m.walk(p, what, c, Sched{Alg: Ring, N: c.n, Me: c.me}, blocks, blocks, tag, nil)
	m.unpackHeld(p, st)
	m.release(st)
}

// exchangeAll is the personalised all-to-all over c, in the pairwise
// step order (see PairwisePeers), all on one tag. Every block is packed
// once and unpacked once, so either side is held from two blocks up,
// and the caller's own block then moves from stage to stage. The
// receive of every step is posted first; the sends then go one at a
// time in step order, so in each step every member is sent to by one
// peer, and a rank has one send's staging in flight at a time.
func (m *Rank) exchangeAll(p *sim.Proc, what string, c comm, send, recv view, tag int) {
	each := func(int) int { return 1 }
	ss, rs := m.hold(c.n, send, each), m.hold(c.n, recv, each)
	m.packHeld(p, ss)
	send, recv = ss.over(send), rs.over(recv)
	m.walk(p, what, c, Sched{Alg: Pairwise, N: c.n, Me: c.me}, send, recv, tag, func() { m.copyBlock(p, c.me, send, recv) })
	m.unpackHeld(p, rs)
	m.release(rs)
	m.release(ss)
}

// linearGather collects one block per member at member rootIdx. Every
// other member sends (sbuf, sdt, scount) on tag + its index. The root
// walks the members in index order, posting the receive of block i of
// recv for every member but itself: its own block is already in place,
// or staged packs it. staged, when non-nil, then runs with every
// receive posted (the hierarchical leaders pack their own contribution
// there, overlapping the inbound transfers) before the root waits. The
// root holds the blocks it receives and unpacks them together.
func (m *Rank) linearGather(p *sim.Proc, what string, c comm, rootIdx int, sbuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recv view, tag int, staged func()) {
	s := Sched{Alg: Gather, N: c.n, Me: c.me, Root: rootIdx}
	if c.me != rootIdx {
		m.walk(p, what, c, s, one(sbuf, sdt, scount), nil, tag, nil)
		return
	}
	st := m.hold(c.n, recv, func(i int) int {
		if i == rootIdx {
			return 0
		}
		return 1
	})
	m.walk(p, what, c, s, nil, st.over(recv), tag, staged)
	m.unpackHeld(p, st)
	m.release(st)
}

// Neighbor is one block of a neighbourhood exchange: Count elements of
// Dt laid out over Buf (byte 0 is the datatype origin), sent to or
// received from member Peer of the group.
type Neighbor struct {
	Buf   mem.Buffer
	Dt    *datatype.Datatype
	Count int
	Peer  int
}

// neighborView is the blocks of one side of a neighbourhood exchange.
func neighborView(nb []Neighbor) view {
	return func(i int) (mem.Buffer, *datatype.Datatype, int) { return nb[i].Buf, nb[i].Dt, nb[i].Count }
}

// neighbours is the neighbourhood exchange over the graph the two lists
// spell out: every block of sends goes to its peer, every block of recvs
// is filled by its peer, all on one tag, so the blocks exchanged with
// one peer match in list order. Every block is packed once and unpacked
// once, so either side is held from two blocks up: receives are posted
// in list order, then the sends, and the stage is unpacked when all of
// them are in.
func (m *Rank) neighbours(p *sim.Proc, what string, c comm, sends, recvs []Neighbor, tag int) {
	each := func(int) int { return 1 }
	send, recv := neighborView(sends), neighborView(recvs)
	ss, rs := m.hold(len(sends), send, each), m.hold(len(recvs), recv, each)
	m.packHeld(p, ss)
	send, recv = ss.over(send), rs.over(recv)
	b := m.batch(c)
	for i := range recvs {
		buf, dt, count := recv(i)
		b.recv(buf, dt, count, recvs[i].Peer, tag)
	}
	for i := range sends {
		buf, dt, count := send(i)
		b.send(p, buf, dt, count, sends[i].Peer, tag)
	}
	b.wait(p, what)
	m.unpackHeld(p, rs)
	m.release(rs)
	m.release(ss)
}

// tokenDT is the 8-byte barrier token.
var tokenDT = datatype.Contiguous(1, datatype.Int64)

// dissemination is the barrier: round k exchanges a token with the
// members 2^k away on tag+k; after ceil(log2 n) rounds every member has
// transitively heard from every other.
func (m *Rank) dissemination(p *sim.Proc, what string, c comm, tag int) {
	if c.n == 1 {
		return
	}
	tok, in := m.take(m.space, 8), m.take(m.space, 8)
	for s, k := 0, 1; k < c.n; s, k = s+1, k<<1 {
		m.batch(c).send(p, tok, tokenDT, 1, (c.me+k)%c.n, tag+s).
			recv(in, tokenDT, 1, (c.me-k+c.n)%c.n, tag+s).wait(p, what)
	}
	m.give(in)
	m.give(tok)
}
