// Package model is the modelled-payload mode of the scale sweep: a
// flyweight re-implementation of the scale collectives (flat and
// hierarchical alltoall/allgather) on the sharded discrete-event
// engine, sized for 16k+ ranks.
//
// Where an mpi.World gives every rank a goroutine, device buffers and
// the full protocol stack, a model world gives every rank a few dozen
// bytes of state machine and replaces payload bytes with
// mpi.SyntheticPayload generators: a message carries (phase, from,
// block, bytes, signature) and nothing else. The schedules are
// internal/mpi's own (mpi.Sched): each rank walks its steps as the real
// stack does (coll.go). Correctness is still checked end to end —
//
//   - every expected inbound block is marked exactly once in a
//     per-sampled-rank cover bitset (duplicates and omissions panic);
//   - messages addressed to sampled ranks carry a 64-bit content
//     signature computed by the sender from its own payload generator,
//     and the receiver independently recomputes and compares it;
//   - the final Result.Digest is the sha256 of the sampled ranks'
//     reconstructed packed receive images, byte-comparable with the
//     digest a real mpi.World produces for the same collective when
//     its buffers are filled with the same SyntheticPayload seeds.
//
// Timing uses the same first-order cost model everywhere: a per-message
// posting overhead plus a pack/unpack charge on each side, then link
// serialization on the shared resources the message crosses (node NIC
// tx/rx, the leaf uplink/downlink chosen by (srcNode+dstNode) % spines,
// or the intra-node bus). Ranks are partitioned across engine shards by
// fat-tree leaf, and the leaf-to-spine hop provides the conservative
// lookahead, so virtual times are byte-identical for any shard count.
package model

import (
	"crypto/sha256"
	"fmt"
	"unsafe"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Seed bases shared with the real-payload arm (internal/bench fills
// real buffers from the same bases, which is what makes the two
// digests comparable).
const (
	SeedAllgather = 2000 // + contributing rank
	SeedAlltoall  = 3000 // + sending rank (whole send buffer)
)

// Calibration constants of the first-order cost model. The eager limit
// is mpi.DefaultEager and the intra-node active-message hop is
// mpi.AMLatency; the pack constants approximate a GPU pack kernel
// (launch overhead plus streaming rate) rather than re-simulating the
// pipeline.
const (
	packLaunch = 5 * sim.Microsecond // per-message pack/unpack kernel launch
	packGBps   = 60.0                // pack/unpack streaming rate
)

// Stages of a spine-crossing message (sim.Event.B): addressed to its
// sender as the wake of the WaitSend after it, which hands it on when
// it is off the wire (rankSM.HandleEvent), or at the destination leaf's
// relay. A delivered message is B 0.
const (
	departing = 1
	atRelay   = 2
)

// Options configures one modelled collective.
type Options struct {
	// Spec is the cluster shape; it must carry a fat-tree topology
	// (cluster.Scale does).
	Spec cluster.Spec

	// Coll is "alltoall" or "allgather".
	Coll string

	// Flat selects the flat single-level schedule instead of the
	// hierarchical leader-based one.
	Flat bool

	// Shards is the requested engine shard count (clamped to the number
	// of fat-tree leaves; 0 = 1).
	Shards int

	// Dt and Count describe one rank's per-peer contribution.
	Dt    *datatype.Datatype
	Count int

	// SampleRanks bounds how many ranks get full content verification
	// (cover bitsets, message signatures, digest contribution). 0 or
	// >= world size means every rank.
	SampleRanks int

	// RecordSpans attaches a sim.Recorder to the run (Result.Rec): each
	// rank records its completion span on track "rank<r>".
	RecordSpans bool
}

// Result is the outcome of a modelled collective.
type Result struct {
	// Time is the virtual completion time (max over ranks).
	Time sim.Time

	// Digest is the sha256 over the sampled ranks' packed receive
	// images, ascending rank order. With SampleRanks=0 it equals the
	// digest of a real-payload run of the same collective.
	Digest [32]byte

	// Sampled lists the verified ranks.
	Sampled []int

	// Shards is the effective shard count used.
	Shards int

	// Messages, Events, SigChecks count modelled messages, dispatched
	// engine events and verified message signatures.
	Messages  int64
	Events    int64
	SigChecks int64

	// StateBytes is the deterministic structural memory of the world:
	// rank state machines, per-resource clocks, cover bitsets and the
	// peak event heap. This is the flyweight counterpart of a real
	// world's FootprintBytes.
	StateBytes int64

	// HeapPeak is the largest single-shard pending-event count.
	HeapPeak int

	// Rec is the run's recorder (only when RecordSpans), ready for
	// trace.Phases, trace.WriteTimeline and trace.WriteChrome.
	Rec *sim.Recorder
}

// MemPerRank returns StateBytes divided by the world size.
func (r Result) MemPerRank(p int) int64 {
	if p <= 0 {
		return 0
	}
	return r.StateBytes / int64(p)
}

// world is the flyweight simulation state. One handler runs at a time
// (sim.Handler), so all of it is shared freely.
type world struct {
	o     Options
	se    *sim.ShardedEngine
	ranks []rankSM

	p, nodes, rpn int
	radix, spines int
	leaves, eff   int
	b             int64   // packed bytes of one per-peer block
	a2a, flat     bool    // o.Coll == "alltoall", o.Flat
	ph            []phase // the collective's schedules (coll.go)
	dt            *datatype.Datatype
	count         int

	// calibration
	wire, upBw, busBw float64
	lat, hopLat       sim.Time
	overhead          sim.Time

	// per-rank clocks. rx is where a post-ahead phase's blocks unpack
	// as they land (world.land), beside the sends on cpu.
	cpu      []sim.Time
	rx       []sim.Time
	lastSend []sim.Time
	doneAt   []sim.Time

	// per-resource next-free times. up[leaf*spines+s] is charged when
	// the source leaf sends, down[leaf*spines+s] by the relay event at
	// the destination leaf, at arrival time.
	nodeTx, nodeRx, bus []sim.Time
	up, down            []sim.Time

	// verification state
	sampled    []bool
	sampleList []int
	cover      [][]uint64 // nil for unsampled ranks
	covered    []int32
	colSig     []uint64 // hier-alltoall column signatures, lazily cached
	fullSigAG  uint64   // hier-allgather full-buffer signature

	// statistics
	msgs, sigs int64
	rec        *sim.Recorder                           // nil unless o.RecordSpans
	sent       func(from, to sim.ActorID, bytes int64) // sees every send; set by tests only
}

// Run executes one modelled collective and returns its Result. It
// panics on any correctness violation (signature mismatch, duplicate
// or missing block, cross-shard lookahead violation) — those are model
// bugs, not runtime conditions — and returns an error only for
// unusable Options.
func Run(o Options) (Result, error) {
	w, err := build(o)
	if err != nil {
		return Result{}, err
	}
	w.se.Run()
	return w.finalize()
}

func build(o Options) (*world, error) {
	if o.Coll != "alltoall" && o.Coll != "allgather" {
		return nil, fmt.Errorf("model: unknown collective %q", o.Coll)
	}
	if o.Dt == nil {
		return nil, fmt.Errorf("model: Options.Dt is required")
	}
	if o.Count <= 0 {
		return nil, fmt.Errorf("model: Options.Count must be positive")
	}
	spec := o.Spec
	nodes := spec.Nodes
	if nodes == 0 {
		nodes = 1
	}
	gpn := spec.GPUsPerNode
	if gpn == 0 {
		gpn = 1
	}
	rpn := spec.RanksPerNode
	if rpn == 0 {
		rpn = gpn
	}
	ibp := spec.IB.WithDefaults()
	topo := ibp.Topo
	if !topo.Hierarchical() {
		return nil, fmt.Errorf("model: spec %v has no fat-tree topology (use cluster.Scale)", spec)
	}
	busBw := spec.PCIe.RootGBps
	if busBw <= 0 {
		busBw = pcie.DefaultParams().RootGBps
	}
	w := &world{
		o:      o,
		p:      nodes * rpn,
		nodes:  nodes,
		rpn:    rpn,
		radix:  topo.LeafRadix,
		spines: topo.Spines,
		dt:     o.Dt,
		count:  o.Count,
		b:      int64(o.Count) * o.Dt.Size(),

		wire:     ibp.WireGBps,
		upBw:     topo.UplinkGBps,
		busBw:    busBw,
		lat:      ibp.Latency,
		hopLat:   topo.HopLatency,
		overhead: ibp.PerMsgOverhead,
	}
	if w.upBw > w.wire {
		w.upBw = w.wire
	}
	w.a2a, w.flat = o.Coll == "alltoall", o.Flat
	w.ph = w.phases()
	w.leaves = (nodes + w.radix - 1) / w.radix
	w.eff = o.Shards
	if w.eff == 0 {
		w.eff = spec.Shards // a cluster.ScaleModelled spec carries the shard count
	}
	if w.eff < 1 {
		w.eff = 1
	}
	if w.eff > w.leaves {
		w.eff = w.leaves
	}
	lookahead := w.lat/2 + w.hopLat

	w.cpu = make([]sim.Time, w.p)
	w.rx = make([]sim.Time, w.p)
	w.lastSend = make([]sim.Time, w.p)
	w.doneAt = make([]sim.Time, w.p)
	w.nodeTx = make([]sim.Time, nodes)
	w.nodeRx = make([]sim.Time, nodes)
	w.bus = make([]sim.Time, nodes)
	w.up = make([]sim.Time, w.leaves*w.spines)
	w.down = make([]sim.Time, w.leaves*w.spines)
	w.sampled = make([]bool, w.p)
	w.cover = make([][]uint64, w.p)
	w.covered = make([]int32, w.p)

	n := o.SampleRanks
	if n <= 0 || n >= w.p {
		n = w.p
	}
	words := (w.p + 63) / 64
	for i := 0; i < n; i++ {
		// Evenly spread samples so every leaf and both leader/member
		// roles appear in the verified set.
		r := i * w.p / n
		if w.sampled[r] {
			continue
		}
		w.sampled[r] = true
		w.sampleList = append(w.sampleList, r)
		w.cover[r] = make([]uint64, words)
	}

	if w.a2a && !w.flat {
		w.colSig = make([]uint64, w.p)
	}
	if !w.a2a && !w.flat && len(w.sampleList) > 0 && rpn > 1 {
		var s mpi.Sig64
		for g := 0; g < w.p; g++ {
			w.payAG(g).FoldPacked(&s, 0, w.count)
		}
		w.fullSigAG = s.Sum64()
	}

	w.se = sim.NewShardedEngine(w.eff, lookahead)
	if o.RecordSpans {
		w.rec = w.se.Record()
	}
	w.ranks = make([]rankSM, w.p)
	for r := 0; r < w.p; r++ {
		node := r / rpn
		a := &w.ranks[r]
		*a = rankSM{w: w, r: sim.ActorID(r)}
		id := w.se.AddActor(w.shardOfNode(node), a)
		if int(id) != r {
			panic("model: actor id drifted from rank")
		}
	}
	for r := 0; r < w.p; r++ {
		w.se.Post(0, sim.Event{To: sim.ActorID(r)})
	}
	return w, nil
}

// shardOfNode maps a node's leaf to a shard block (leaf*eff/leaves),
// keeping whole leaves on one shard so only spine-crossing traffic is
// ever cross-shard.
func (w *world) shardOfNode(node int) int {
	return (node / w.radix) * w.eff / w.leaves
}

func (w *world) nodeOf(r sim.ActorID) int { return int(r) / w.rpn }

func (w *world) payA2A(r int) mpi.SyntheticPayload {
	return mpi.SyntheticPayload{Seed: SeedAlltoall + uint64(r), Dt: w.dt, Count: w.p * w.count}
}

func (w *world) payAG(r int) mpi.SyntheticPayload {
	return mpi.SyntheticPayload{Seed: SeedAllgather + uint64(r), Dt: w.dt, Count: w.count}
}

// packCost charges a pack or unpack of n bytes (kernel launch plus
// streaming).
func (w *world) packCost(n int64) sim.Time {
	return packLaunch + sim.TimeForBytes(n, packGBps)
}

// send models one point-to-point message of phase ph carrying the
// sender's block: sender-side posting overhead and pack, the rendezvous
// round trip, then serialization on the shared resources along the
// path. It lands (land) at the receiving rank; a spine-crossing message
// posts a relay event at the destination leaf first (arriving exactly
// one lookahead after it leaves, which is what licenses the cross-shard
// post). In a post-ahead phase it leaves with the wake of the WaitSend
// that follows it (rankSM.HandleEvent), so the sender has one event
// pending, not a wake beside a relay.
func (w *world) send(sc *sim.ShardCtx, from, to sim.ActorID, ph int8, block int32, bytes int64) {
	st := max(w.cpu[from], sc.Now(), w.lastSend[from]) + w.overhead + w.packCost(bytes)
	var sig uint64
	if w.sampled[to] {
		sig = w.msgSig(&w.ph[ph], from, to, block)
	}
	w.msgs++
	if w.sent != nil {
		w.sent(from, to, bytes)
	}
	ev := sim.Event{To: to, Kind: int32(ph) + 1, From: from, Round: block, A: bytes, Sig: sig}
	sn, dn := w.nodeOf(from), w.nodeOf(to)
	sl, dl := sn/w.radix, dn/w.radix
	var end, at sim.Time
	switch {
	case sn == dn:
		// Intra-node: active message over the shared bus.
		if bytes > mpi.DefaultEager {
			st += 2 * mpi.AMLatency // rendezvous handshake
		}
		end = max(st, w.bus[sn]) + sim.TimeForBytes(bytes, w.busBw)
		w.bus[sn], at = end, end+mpi.AMLatency
	case sl == dl:
		// Same leaf: one switch, source NIC tx and destination NIC rx.
		if bytes > mpi.DefaultEager {
			st += 2 * w.lat
		}
		end = max(st, w.nodeTx[sn], w.nodeRx[dn]) + sim.TimeForBytes(bytes, w.wire)
		w.nodeTx[sn], w.nodeRx[dn], at = end, end, end+w.lat
	default:
		// Spine-crossing: source NIC tx and the (leaf, spine) uplink are
		// charged here; the downlink and destination NIC in the relay
		// stage, when the message reaches the destination leaf.
		if bytes > mpi.DefaultEager {
			st += 2 * (w.lat + 2*w.hopLat)
		}
		ul := sl*w.spines + (sn+dn)%w.spines
		end = max(st, w.nodeTx[sn], w.up[ul]) + sim.TimeForBytes(bytes, w.upBw)
		w.nodeTx[sn], w.up[ul] = end, end
	}
	w.cpu[from], w.lastSend[from] = st, end
	switch {
	case sl == dl:
		w.land(sc, ev, at)
	case w.ph[ph].alg == mpi.Pairwise:
		ev.To, ev.From, ev.B = from, to, departing
		w.ranks[from].sending = true
		sc.Post(end-sc.Now(), ev)
	default:
		ev.B = atRelay
		sc.Post(end+w.lat/2+w.hopLat-sc.Now(), ev)
	}
}

// relay is the destination-leaf half of a spine-crossing message: it
// serializes on the downlink and destination NIC and lands the message
// locally.
func (w *world) relay(sc *sim.ShardCtx, ev sim.Event) {
	sn, dn := w.nodeOf(ev.From), w.nodeOf(ev.To)
	dlink := (dn/w.radix)*w.spines + (sn+dn)%w.spines
	end := max(sc.Now(), w.down[dlink], w.nodeRx[dn]) + sim.TimeForBytes(ev.A, w.upBw)
	w.down[dlink], w.nodeRx[dn] = end, end
	ev.B = 0
	w.land(sc, ev, end+w.hopLat+w.lat/2)
}

// land delivers ev to its rank at time at. A rank waits for each block
// of a ring, gather, scatter or broadcast with nothing else to do, so
// the block is an event, unpacked on the rank's CPU clock (arrive). In
// a post-ahead phase (mpi.Pairwise) every receive is posted and the
// rank is busy sending, one wake per send: a block then books itself
// here, on the receiver's shard (a same-leaf sender's or the relay's
// handler), and unpacks on the rank's receive clock from the time it
// lands, as the real stack's progress process unpacks beside the
// blocking sends. Only a rank that already waits at the phase's last
// step for it gets a wake, once the block is unpacked. So a message is
// one event either way, besides its relay.
func (w *world) land(sc *sim.ShardCtx, ev sim.Event, at sim.Time) {
	ph := &w.ph[ev.Kind-1]
	if ph.alg != mpi.Pairwise {
		sc.Post(at-sc.Now(), ev)
		return
	}
	r := ev.To
	w.rx[r] = max(w.rx[r], at) + w.packCost(ev.A)
	w.receive(ph, ev)
	a := &w.ranks[r]
	a.landed(int8(ev.Kind - 1))
	if a.waits(int8(ev.Kind - 1)) {
		sc.Post(w.rx[r]-sc.Now(), sim.Event{To: r})
	}
}

// arrive charges the receive-side unpack of a block delivered at time
// at and advances the rank's CPU clock.
func (w *world) arrive(r sim.ActorID, at sim.Time, bytes int64) {
	w.cpu[r] = max(w.cpu[r], at) + w.packCost(bytes)
}

// receive verifies a block landing at ev.To and marks the source blocks
// it brings: the sender's own in a pairwise exchange, the carried one
// around a ring, everything from a leader's scatter or broadcast, and
// nothing yet from a gather (the leader marks its node's blocks when it
// enters the leader phase).
func (w *world) receive(ph *phase, ev sim.Event) {
	r := ev.To
	w.verify(ph, r, ev)
	switch {
	case ph.alg == mpi.Gather:
	case ph.tier == tierNode:
		w.mark(r, 0, w.p)
	default:
		src := int(ev.Round)
		if ph.alg == mpi.Pairwise {
			from, _ := w.sched(ph, ev.From)
			src = from.Me
		}
		w.mark(r, src*ph.width, ph.width)
	}
}

// mark records that sampled rank r received the n blocks contributed by
// global sources [src, src+n), panicking on duplicates.
func (w *world) mark(r sim.ActorID, src, n int) {
	bits := w.cover[r]
	if bits == nil {
		return
	}
	for end := src + n; src < end; src++ {
		word, bit := src>>6, uint(src&63)
		if bits[word]&(1<<bit) != 0 {
			panic(fmt.Sprintf("model: rank %d received block %d twice", r, src))
		}
		bits[word] |= 1 << bit
	}
	w.covered[r] += int32(n)
}

// msgSig computes the content signature for a message of phase ph
// carrying the sender's block. Sender and a sampled receiver evaluate
// the same pure function of (phase, from, to, block) against their own
// payload generators; a mismatch means the modelled schedule moved the
// wrong bytes.
func (w *world) msgSig(ph *phase, from, to sim.ActorID, block int32) uint64 {
	var s mpi.Sig64
	switch {
	case ph.alg == mpi.Gather && w.a2a:
		// A member's whole send buffer.
		return w.payA2A(int(from)).PackedSig(0, w.p*w.count)
	case ph.alg == mpi.Gather:
		// A member's contribution.
		return w.payAG(int(from)).PackedSig(0, w.count)
	case ph.tier == tierNode && w.a2a:
		// A member's result column (Scatter).
		return w.colSigA2A(int(to))
	case ph.tier == tierNode:
		// The assembled buffer (Bcast).
		return w.fullSigAG
	case ph.tier == tierLeaders && w.a2a:
		// Node pair: the source node's blocks for every rank on the
		// destination node, member-major.
		sn, dn := w.nodeOf(from), w.nodeOf(to)
		for li := 0; li < w.rpn; li++ {
			w.payA2A(sn*w.rpn+li).FoldPacked(&s, dn*w.rpn*w.count, w.rpn*w.count)
		}
		return s.Sum64()
	case ph.tier == tierLeaders:
		// The slab of node block, member-major.
		for li := 0; li < w.rpn; li++ {
			w.payAG(int(block)*w.rpn+li).FoldPacked(&s, 0, w.count)
		}
		return s.Sum64()
	case w.a2a:
		// The sender's block for destination to.
		return w.payA2A(int(from)).PackedSig(int(to)*w.count, w.count)
	}
	// The ring's block of rank block.
	return w.payAG(int(block)).PackedSig(0, w.count)
}

// colSigA2A returns (caching) the signature of hier-alltoall's phase-3
// column for destination rank dst: source-rank-major, every rank's
// block addressed to dst.
func (w *world) colSigA2A(dst int) uint64 {
	if s := w.colSig[dst]; s != 0 {
		return s
	}
	var s mpi.Sig64
	for g := 0; g < w.p; g++ {
		w.payA2A(g).FoldPacked(&s, dst*w.count, w.count)
	}
	sig := s.Sum64()
	w.colSig[dst] = sig
	return sig
}

// verify recomputes an inbound message's signature at a sampled rank.
func (w *world) verify(ph *phase, r sim.ActorID, ev sim.Event) {
	if !w.sampled[r] {
		return
	}
	if want := w.msgSig(ph, ev.From, r, ev.Round); want != ev.Sig {
		panic(fmt.Sprintf("model: signature mismatch in phase %d %d->%d block %d: sender %#x receiver %#x",
			ev.Kind-1, ev.From, r, ev.Round, ev.Sig, want))
	}
	w.sigs++
}

func (w *world) finalize() (Result, error) {
	res := Result{
		Shards:    w.eff,
		Messages:  w.msgs,
		Events:    w.se.Events(),
		SigChecks: w.sigs,
		HeapPeak:  w.se.HeapPeak(),
		Sampled:   w.sampleList,
		Rec:       w.rec,
	}
	for r := 0; r < w.p; r++ {
		if !w.ranks[r].done {
			return Result{}, fmt.Errorf("model: rank %d never completed (deadlocked schedule)", r)
		}
		if w.doneAt[r] > res.Time {
			res.Time = w.doneAt[r]
		}
	}
	for _, r := range w.sampleList {
		if int(w.covered[r]) != w.p {
			return Result{}, fmt.Errorf("model: rank %d image incomplete: %d of %d blocks", r, w.covered[r], w.p)
		}
	}
	h := sha256.New()
	var block []byte // one per-peer block, regenerated in place
	for _, r := range w.sampleList {
		for g := 0; g < w.p; g++ {
			if w.a2a {
				block = w.payA2A(g).AppendPacked(block[:0], r*w.count, w.count)
			} else {
				block = w.payAG(g).AppendPacked(block[:0], 0, w.count)
			}
			h.Write(block)
		}
	}
	h.Sum(res.Digest[:0])
	res.StateBytes = w.footprint()
	return res, nil
}

// footprint deterministically accounts the world's structural memory:
// the flyweight per-rank cost the 16k sweep reports.
func (w *world) footprint() int64 {
	const tsz = int64(unsafe.Sizeof(sim.Time(0)))
	n := int64(len(w.ranks)) * int64(unsafe.Sizeof(rankSM{}))
	n += int64(len(w.cpu)+len(w.rx)+len(w.lastSend)+len(w.doneAt)) * tsz
	n += int64(len(w.nodeTx)+len(w.nodeRx)+len(w.bus)+len(w.up)+len(w.down)) * tsz
	n += int64(len(w.sampled)) + int64(len(w.covered))*4
	for _, c := range w.cover {
		n += int64(len(c)) * 8
	}
	n += int64(len(w.colSig)) * 8
	n += int64(w.se.HeapPeak()) * int64(unsafe.Sizeof(sim.Event{}))
	return n
}
