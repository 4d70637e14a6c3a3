package ib

import (
	"strconv"

	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// SHARP-style in-network reduction: the fat-tree switches combine
// member contributions on their way up the tree (leaf ALUs fold the
// contributions of their own ports, one partial per leaf crosses an
// uplink, the spine folds the partials) and multicast the result back
// down every member's downlink. Only the switch-ALU timing is modeled
// per tier; the byte math itself runs once, in member-index order, so
// the result is deterministic regardless of arrival order — exactly
// how SHARP's fixed reduction trees behave, and the property the
// digest gates rely on.
//
// Fault injection deliberately does not reach the switch ALUs: SHARP
// offloads are flow-controlled in hardware, and the members' own
// tx/rx/uplink traversals (which do share links with faulted traffic)
// already carry the congestion. The op is keyed by a collective tag, so
// independent reductions may be in flight concurrently.

// sharpOp is one in-network reduction and the processes that carry it.
// A finished op stays on its fabric (Fabric.sharp) for the next one, so
// a steady-state reduction allocates nothing.
type sharpOp struct {
	f       *Fabric
	id      int
	n       int64
	combine func(acc, in []byte)
	members []*HCA
	bufs    []mem.Buffer // each member's contribution; its result once done
	ports   []sharpPort  // per member: the result down its own port
	order   []int        // member indices grouped by leaf, leaves ascending
	leaves  []sharpLeaf  // one per leaf the members hang off, ascending
	got     int          // contributions in
	left    int          // members not yet returned
	open    bool         // still taking contributions
}

// sharpLeaf is one leaf switch's share of an op: members
// order[lo:hi], its partial up the shared uplink and the result down
// the shared downlink.
type sharpLeaf struct {
	op       *sharpOp
	ls       *leafSwitch
	lo, hi   int
	upDone   sim.Future
	up, down sim.Proc
}

// sharpPort is the result's last hop to one member.
type sharpPort struct {
	op   *sharpOp
	idx  int
	done sim.Future
	proc sim.Proc
}

// sharpUp and sharpDown run a leaf's two transfers as processes.
type (
	sharpUp   sharpLeaf
	sharpDown sharpLeaf
)

// SwitchReduce contributes member idx's bytes to the in-network
// reduction identified by opID and blocks until the reduced vector
// returns down the tree; contrib then holds the result. Every member
// (one call per HCA in members, each from its own process, all with
// identical members/opID/length) must call it, and must not touch
// contrib meanwhile: the switches fold the members' buffers in place,
// calling combine(acc, in) in member-index order into member 0's, so
// the result is independent of arrival order, and copy it into the
// others'. combine must be safe to keep until every member returns.
func (f *Fabric) SwitchReduce(p *sim.Proc, opID int, members []*HCA, idx int, contrib mem.Buffer, combine func(acc, in []byte)) {
	if !f.params.Topo.Hierarchical() {
		panic("ib: SwitchReduce requires a hierarchical fabric")
	}
	n := contrib.Len()
	h := members[idx]

	// Inject the contribution up this member's own port.
	sp := p.BeginBytes("sharp.contrib", n)
	p.Sleep(f.params.PerMsgOverhead)
	h.tx.Transfer(p, n)
	sp.End()
	p.Count("ib.sharp.contrib", 1)

	op := f.sharpOp(opID, members, n, combine)
	op.bufs[idx] = contrib
	op.got++
	if op.got == len(members) {
		// Events run in nondecreasing virtual time, so the last
		// contributor holds the op's max arrival time: it drives the
		// switch tiers on behalf of the tree.
		op.open = false
		op.finish(p)
	}
	op.ports[idx].done.Await(p)
	if op.left--; op.left == 0 {
		clear(op.bufs)
		op.combine, op.members = nil, nil
	}
}

// sharpOp returns the open op opID, or starts one on a finished record.
func (f *Fabric) sharpOp(opID int, members []*HCA, n int64, combine func(acc, in []byte)) *sharpOp {
	var op *sharpOp
	for _, o := range f.sharp {
		if o.open && o.id == opID {
			return o
		}
		if op == nil && !o.open && o.left == 0 {
			op = o
		}
	}
	if op == nil {
		op = &sharpOp{f: f}
		f.sharp = append(f.sharp, op)
	}
	k := len(members)
	op.id, op.n, op.combine, op.members = opID, n, combine, members
	op.got, op.left, op.open = 0, k, true
	if cap(op.bufs) < k {
		op.bufs, op.ports = make([]mem.Buffer, k), make([]sharpPort, k)
	}
	op.bufs, op.ports = op.bufs[:k], op.ports[:k]
	for i := range op.ports {
		op.ports[i].op, op.ports[i].idx = op, i
		op.ports[i].done.Init(f.eng)
	}
	return op
}

// group fills order and leaves: the members by leaf switch, leaves
// ascending, each leaf's members in index order.
func (op *sharpOp) group() {
	op.order = op.order[:0]
	for i := range op.members {
		op.order = append(op.order, i)
	}
	leaf := func(j int) int { return op.members[op.order[j]].leaf }
	for i := 1; i < len(op.order); i++ {
		for j := i; j > 0 && leaf(j) < leaf(j-1); j-- {
			op.order[j], op.order[j-1] = op.order[j-1], op.order[j]
		}
	}
	op.leaves = op.leaves[:0]
	for lo := 0; lo < len(op.order); {
		hi := lo + 1
		for hi < len(op.order) && leaf(hi) == leaf(lo) {
			hi++
		}
		op.leaves = append(op.leaves, sharpLeaf{})
		l := &op.leaves[len(op.leaves)-1]
		l.op, l.ls, l.lo, l.hi = op, op.f.leaves[leaf(lo)], lo, hi
		lo = hi
	}
}

// finish models the switch tiers once all contributions are in: leaf
// ALU fold, partials up the shared uplinks, spine ALU fold, and the
// result multicast down each member's leaf downlink and port.
func (op *sharpOp) finish(p *sim.Proc) {
	t := op.f.params.Topo
	op.group()

	// Each leaf's ALU folds its ports' streams at line rate (per-port ALU
	// lanes, as on SHARP-capable switches), so a leaf stage costs one
	// vector's worth of ALU time plus the fixed stage latency regardless
	// of fan-in.
	sp := p.BeginBytes("sharp.leaf", op.n*int64(op.got))
	p.Sleep(t.ReduceLatency + sim.TimeForBytes(op.n, t.ReduceGBps))
	sp.End()

	if len(op.leaves) > 1 {
		// One partial per leaf crosses its shared uplink to the spine;
		// these contend with whatever else the uplinks carry.
		for i := range op.leaves {
			l := &op.leaves[i]
			l.upDone.Init(op.f.eng)
			name, _ := l.ls.sharpNames()
			op.f.eng.Start(&l.up, name, (*sharpUp)(l))
		}
		for i := range op.leaves {
			op.leaves[i].upDone.Await(p)
		}
		sp := p.BeginBytes("sharp.spine", op.n*int64(len(op.leaves)))
		p.Sleep(t.ReduceLatency + sim.TimeForBytes(op.n, t.ReduceGBps))
		sp.End()
	}

	// The byte math: deterministic member-index order, into member 0's
	// buffer, then the result into every other member's.
	acc := op.bufs[0].Bytes()
	for i := 1; i < len(op.bufs); i++ {
		op.combine(acc, op.bufs[i].Bytes())
	}
	for i := 1; i < len(op.bufs); i++ {
		copy(op.bufs[i].Bytes(), acc)
	}
	p.Count("ib.sharp.reduce", 1)

	// Multicast the result down the tree: one copy crosses each leaf's
	// shared downlink, then fans out over the members' own rx ports in
	// parallel — multicast replication happens at the switch, so the
	// downlink is charged once however many members hang off the leaf.
	for i := range op.leaves {
		l := &op.leaves[i]
		_, name := l.ls.sharpNames()
		op.f.eng.Start(&l.down, name, (*sharpDown)(l))
	}
}

// spine is the spine switch an op's partials meet at.
func (op *sharpOp) spine() int {
	s := op.id % op.f.params.Topo.Spines
	if s < 0 {
		s += op.f.params.Topo.Spines
	}
	return s
}

func (u *sharpUp) Run(p *sim.Proc) {
	u.ls.up[u.op.spine()].Transfer(p, u.op.n)
	u.upDone.Complete(nil)
}

func (d *sharpDown) Run(p *sim.Proc) {
	op := d.op
	if len(op.leaves) > 1 {
		d.ls.down[op.spine()].Transfer(p, op.n)
	}
	for _, i := range op.order[d.lo:d.hi] {
		port := &op.ports[i]
		op.f.eng.Start(&port.proc, op.members[i].sharpName(), port)
	}
}

func (port *sharpPort) Run(p *sim.Proc) {
	port.op.members[port.idx].rx.Transfer(p, port.op.n)
	port.done.Complete(nil)
}

// sharpNames returns the names of the leaf's reduction processes.
func (ls *leafSwitch) sharpNames() (up, down string) {
	if ls.sharpUp == "" {
		ls.sharpUp, ls.sharpDown = "sharp.up."+ls.name, "sharp.down."+ls.name
	}
	return ls.sharpUp, ls.sharpDown
}

// sharpName is the process name of the result's hop down h's port,
// made on h's first reduction.
func (h *HCA) sharpName() string {
	if h.sharp == "" {
		h.sharp = "sharp.down.ib" + strconv.Itoa(h.node.ID())
	}
	return h.sharp
}
