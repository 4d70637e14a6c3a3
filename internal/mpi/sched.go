package mpi

import "math/bits"

// A collective schedule is a value: the algorithm, the member count,
// the caller's index and the root. Step computes any step of it on
// demand, so a schedule is never a list. Two executors read the same
// values: walk (coll.go) posts the steps through a batch, and
// internal/model turns them into modelled messages and wakes.

// Alg names a schedule.
type Alg uint8

const (
	// Pairwise is the personalised exchange: the caller's own block
	// moves by a local copy, every receive is posted in PairwisePeers
	// step order, then the sends go one at a time in the same order, and
	// the last step waits for the receives. All on one tag.
	Pairwise Alg = iota
	// Ring circulates the members' blocks: in step s the caller sends
	// block me-s to its right neighbour and receives block me-s-1 from
	// its left, both on tag s, and waits for both.
	Ring
	// Gather collects block i of every member i at the root, on tag i.
	// The root posts its receives in index order, then does its own
	// block (Copy) while they are in flight, then waits.
	Gather
	// Scatter is Gather reversed: the root sends block i to member i on
	// tag i in index order, copies its own, then waits.
	Scatter
	// Bcast is the binomial broadcast over BinomialTree rotated to the
	// root, on one tag: receive the block from the parent, then send it
	// to each child, largest subtree first, one at a time.
	Bcast
)

// StepOp is what one step does.
type StepOp uint8

const (
	OpRecv     StepOp = iota + 1 // post the receive of Block from member Peer
	OpSend                       // post the send of Block to member Peer
	OpCopy                       // move the caller's own Block locally
	OpWaitSend                   // wait for the sends posted since the last wait
	OpWait                       // wait for everything posted and not yet waited for
)

// Step is one step of a schedule. Peer and Block are member indices and
// Tag is an offset from the schedule's first tag.
type Step struct {
	Op               StepOp
	Peer, Block, Tag int
}

// Sched is member Me's view of schedule Alg over N members rooted at
// member Root (Gather, Scatter and Bcast; the others ignore it).
type Sched struct {
	Alg         Alg
	N, Me, Root int
}

// Len is the number of steps.
func (s Sched) Len() int {
	switch s.Alg {
	case Pairwise:
		return 3*s.N - 1
	case Ring:
		return 3 * (s.N - 1)
	case Gather, Scatter:
		if s.Me != s.Root {
			return 2
		}
		return s.N + 1
	}
	_, parent, k := s.tree()
	n := 2 * bits.Len(uint(k)) // a send and its wait per child
	if parent >= 0 {
		n += 2
	}
	return n
}

// Step returns step i, 0 <= i < Len().
func (s Sched) Step(i int) Step {
	n, me := s.N, s.Me
	switch s.Alg {
	case Pairwise:
		switch {
		case i == 0:
			return Step{Op: OpCopy, Peer: me, Block: me}
		case i < n:
			_, from := PairwisePeers(n, me, i)
			return Step{Op: OpRecv, Peer: from, Block: from}
		case i == 3*n-2:
			return Step{Op: OpWait}
		case (i-n)%2 == 1:
			return Step{Op: OpWaitSend}
		}
		to, _ := PairwisePeers(n, me, (i-n)/2+1)
		return Step{Op: OpSend, Peer: to, Block: to}
	case Ring:
		st := i / 3
		switch i % 3 {
		case 0:
			return Step{Op: OpSend, Peer: (me + 1) % n, Block: (me - st + n) % n, Tag: st}
		case 1:
			return Step{Op: OpRecv, Peer: (me - 1 + n) % n, Block: (me - st - 1 + n) % n, Tag: st}
		}
		return Step{Op: OpWait}
	case Gather, Scatter:
		toRoot, fromRoot := OpSend, OpRecv // a member's one transfer, the root's n-1
		if s.Alg == Scatter {
			toRoot, fromRoot = OpRecv, OpSend
		}
		switch {
		case me != s.Root && i == 0:
			return Step{Op: toRoot, Peer: s.Root, Block: me, Tag: me}
		case me != s.Root || i == n:
			return Step{Op: OpWait}
		case i == n-1:
			return Step{Op: OpCopy, Peer: me, Block: me}
		case i >= s.Root:
			i++ // the root's own block is the Copy
		}
		return Step{Op: fromRoot, Peer: i, Block: i, Tag: i}
	}
	v, parent, k := s.tree()
	if parent >= 0 {
		if i < 2 {
			if i == 1 {
				return Step{Op: OpWait}
			}
			return Step{Op: OpRecv, Peer: (parent + s.Root) % n}
		}
		i -= 2
	}
	if i%2 == 1 {
		return Step{Op: OpWait}
	}
	return Step{Op: OpSend, Peer: (v + k>>(i/2) + s.Root) % n}
}

// tree places the caller in the Bcast tree: its virtual rank, its
// parent's (-1 at the root) and the offset of its largest child (0 for
// a leaf); the children are v+k, v+k/2, ..., v+1.
func (s Sched) tree() (v, parent, k int) {
	v = (s.Me - s.Root + s.N) % s.N
	parent, span := BinomialTree(s.N, v)
	k = span >> 1
	for k > 0 && v+k >= s.N {
		k >>= 1
	}
	return v, parent, k
}
