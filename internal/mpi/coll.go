package mpi

import (
	"slices"

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
// time and runs the same schedule on a spawned progress process.
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
func (m *Rank) alltoallvTags() int { return 4 * m.Size() }

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

// exchange is one step of a ring, pairwise or dissemination schedule:
// post the send to world rank to, then the receive from world rank
// from, and wait for both. A zero-size side posts nothing. It returns
// the packed bytes received.
func (m *Rank) exchange(p *sim.Proc, sbuf mem.Buffer, sdt *datatype.Datatype, scount, to int,
	rbuf mem.Buffer, rdt *datatype.Datatype, rcount, from, tag int) int64 {
	var sreq, rreq *Request
	if packedSize(sdt, scount) > 0 {
		sreq = m.isendOn(p, sbuf, sdt, scount, to, tag)
	}
	if packedSize(rdt, rcount) > 0 {
		rreq = m.irecv(rbuf, rdt, rcount, from, tag)
	}
	if sreq != nil {
		await(p, sreq)
	}
	if rreq == nil {
		return 0
	}
	return await(p, rreq)
}

// PairwisePeers returns the round-s exchange partners of index r among
// n peers: the recursive-doubling XOR pairing when n is a power of two,
// the shifted ring otherwise. Rounds run 1..n-1. Shared with the
// flyweight model (internal/model) so both execute one pattern.
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

// tree places the caller in the binomial tree over c rotated so that
// member rootIdx is virtual rank 0; at maps a virtual rank back to its
// world rank.
func (c comm) tree(rootIdx int) (v, parent, span int) {
	v = (c.me - rootIdx + c.n) % c.n
	parent, span = BinomialTree(c.n, v)
	return v, parent, span
}

func (c comm) at(v, rootIdx int) int { return c.rank((v + rootIdx) % c.n) }

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
	v, parent, span := c.tree(rootIdx)
	launches := 0
	if parent >= 0 {
		launches++
	}
	for k := span >> 1; k > 0; k >>= 1 {
		if v+k < c.n {
			launches++
		}
	}
	st, buf, dt, count := m.holdBlock(launches, buf, dt, count)
	if parent >= 0 {
		m.recvBlock(p, what, buf, dt, count, c.at(parent, rootIdx), tag)
	} else {
		m.packHeld(p, st)
	}
	for k := span >> 1; k > 0; k >>= 1 {
		if v+k < c.n {
			m.sendOn(p, buf, dt, count, c.at(v+k, rootIdx), tag)
		}
	}
	if parent >= 0 {
		m.unpackHeld(p, st)
	}
	m.release(st)
}

// reduceTree combines every member's acc — already holding its
// contribution — into member rootIdx's acc over the binomial tree.
// Per-child messages are tagged tag + sender's world rank. Every member
// must call it.
func (m *Rank) reduceTree(p *sim.Proc, c comm, rootIdx int, acc mem.Buffer, dt *datatype.Datatype, count int, prim datatype.Primitive, op Op, tag int) {
	if c.n <= 1 {
		return
	}
	v, parent, span := c.tree(rootIdx)
	var tmp mem.Buffer
	for k := 1; k < span && v+k < c.n; k <<= 1 {
		if !tmp.IsValid() {
			tmp = m.accumBuf(acc, acc.Len())
		}
		child := c.at(v+k, rootIdx)
		m.recvOn(p, tmp, dt, count, child, tag+child)
		m.combine(p, acc, tmp, prim, op)
	}
	if parent >= 0 {
		m.sendOn(p, acc, dt, count, c.at(parent, rootIdx), tag+m.rank)
	}
	if tmp.IsValid() {
		m.releaseAccum(tmp)
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
	right, left := c.rank((c.me+1)%c.n), c.rank((c.me-1+c.n)%c.n)
	for s := 0; s < c.n-1; s++ {
		sbuf, sdt, scount := blocks((c.me - s + c.n) % c.n)
		rbuf, rdt, rcount := blocks((c.me - s - 1 + c.n) % c.n)
		got := m.exchange(p, sbuf, sdt, scount, right, rbuf, rdt, rcount, left, tag+s)
		m.wholeBlock(what, left, got, rdt, rcount)
	}
	m.unpackHeld(p, st)
	m.release(st)
}

// exchangeAll is the personalised all-to-all over c: the caller's own
// block first, then the pairwise steps. Every block is packed once and
// unpacked once, so either side is held from two blocks up, and the own
// block then moves from stage to stage.
func (m *Rank) exchangeAll(p *sim.Proc, what string, c comm, send, recv view, tag int) {
	each := func(int) int { return 1 }
	ss, rs := m.hold(c.n, send, each), m.hold(c.n, recv, each)
	m.packHeld(p, ss)
	send, recv = ss.over(send), rs.over(recv)
	m.copyBlock(p, c.me, send, recv)
	m.pairwise(p, what, c, send, recv, tag)
	m.unpackHeld(p, rs)
	m.release(rs)
	m.release(ss)
}

// pairwise is steps 1..n-1 of the pairwise exchange (see
// PairwisePeers), all on one tag: send block `to` of send, receive
// block `from` of recv. The caller's own block is the caller's business
// and moves before step 1.
func (m *Rank) pairwise(p *sim.Proc, what string, c comm, send, recv view, tag int) {
	for s := 1; s < c.n; s++ {
		to, from := PairwisePeers(c.n, c.me, s)
		sbuf, sdt, scount := send(to)
		rbuf, rdt, rcount := recv(from)
		got := m.exchange(p, sbuf, sdt, scount, c.rank(to), rbuf, rdt, rcount, c.rank(from), tag)
		m.wholeBlock(what, c.rank(from), got, rdt, rcount)
	}
}

// linearGather collects one block per member at member rootIdx. Every
// other member sends (sbuf, sdt, scount) on tag + its index. The root
// walks the members in index order, posting the receive of block i of
// recv, and copies its own (sbuf, sdt, scount) into its block where the
// walk reaches it — an invalid sbuf says that block is already in
// place. staged, when non-nil, then runs with every receive posted (the
// hierarchical leaders pack their own contribution there, overlapping
// the inbound transfers) before the root waits. The root holds the
// blocks it receives and unpacks them together.
func (m *Rank) linearGather(p *sim.Proc, what string, c comm, rootIdx int, sbuf mem.Buffer, sdt *datatype.Datatype, scount int,
	recv view, tag int, staged func()) {
	if c.me != rootIdx {
		if packedSize(sdt, scount) > 0 {
			m.sendOn(p, sbuf, sdt, scount, c.rank(rootIdx), tag+c.me)
		}
		return
	}
	st := m.hold(c.n, recv, func(i int) int {
		if i == rootIdx {
			return 0
		}
		return 1
	})
	recv = st.over(recv)
	reqs := make([]*Request, c.n)
	for i := 0; i < c.n; i++ {
		buf, dt, count := recv(i)
		switch {
		case packedSize(dt, count) == 0:
		case i != rootIdx:
			reqs[i] = m.irecv(buf, dt, count, c.rank(i), tag+i)
		case sbuf.IsValid():
			m.localCopy(p, sbuf, sdt, scount, buf, dt, count)
		}
	}
	if staged != nil {
		staged()
	}
	for i, rq := range reqs {
		if rq != nil {
			got := await(p, rq)
			_, dt, count := recv(i)
			m.wholeBlock(what, c.rank(i), got, dt, count)
		}
	}
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
// them are in. It runs on the rank's main process only, so the request
// slice is the rank's (nbReqs).
func (m *Rank) neighbours(p *sim.Proc, what string, c comm, sends, recvs []Neighbor, tag int) {
	each := func(int) int { return 1 }
	send, recv := neighborView(sends), neighborView(recvs)
	ss, rs := m.hold(len(sends), send, each), m.hold(len(recvs), recv, each)
	m.packHeld(p, ss)
	send, recv = ss.over(send), rs.over(recv)
	reqs := slices.Grow(m.nbReqs[:0], len(recvs)+len(sends))[:len(recvs)+len(sends)]
	for i := range recvs {
		if buf, dt, count := recv(i); packedSize(dt, count) > 0 {
			reqs[i] = m.irecv(buf, dt, count, c.rank(recvs[i].Peer), tag)
		}
	}
	sreqs := reqs[len(recvs):]
	for i := range sends {
		if buf, dt, count := send(i); packedSize(dt, count) > 0 {
			sreqs[i] = m.isendOn(p, buf, dt, count, c.rank(sends[i].Peer), tag)
		}
	}
	for _, rq := range sreqs {
		if rq != nil {
			await(p, rq)
		}
	}
	for i, rq := range reqs[:len(recvs)] {
		if rq != nil {
			got := await(p, rq)
			_, dt, count := recv(i)
			m.wholeBlock(what, c.rank(recvs[i].Peer), got, dt, count)
		}
	}
	clear(reqs) // their records are home
	m.nbReqs = reqs[:0]
	m.unpackHeld(p, rs)
	m.release(rs)
	m.release(ss)
}

// tokenDT is the 8-byte barrier token.
var tokenDT = datatype.Contiguous(1, datatype.Int64)

// dissemination is the barrier: round k exchanges a token with the
// members 2^k away on tag+k; after ceil(log2 n) rounds every member has
// transitively heard from every other.
func (m *Rank) dissemination(p *sim.Proc, c comm, tag int) {
	if c.n == 1 {
		return
	}
	tok, in := m.scratch(8), m.scratch(8)
	for s, k := 0, 1; k < c.n; s, k = s+1, k<<1 {
		m.exchange(p, tok.Slice(0, 8), tokenDT, 1, c.rank((c.me+k)%c.n),
			in.Slice(0, 8), tokenDT, 1, c.rank((c.me-k+c.n)%c.n), tag+s)
	}
	m.freeScratch(in)
	m.freeScratch(tok)
}
