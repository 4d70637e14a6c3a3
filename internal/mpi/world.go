// Package mpi implements a miniature MPI runtime over the simulated
// cluster, mirroring the Open MPI layering the paper integrates with
// (§4): a PML doing tag matching and protocol selection (eager vs
// rendezvous), BTL-level active-message channels (shared memory and
// InfiniBand), and pluggable data-transfer strategies. The default
// strategy implements the paper's pipelined RDMA and copy-in/out
// protocols on top of the core GPU datatype engine; the MVAPICH-style
// baseline lives in internal/baseline.
package mpi

import (
	"fmt"

	"gpuddt/internal/core"
	"gpuddt/internal/fault"
	"gpuddt/internal/gpu"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Placement locates one rank on the cluster.
type Placement struct {
	Node int
	GPU  int // default GPU for this rank
}

// Config describes the simulated cluster and runtime tuning.
type Config struct {
	// Ranks places each rank; len(Ranks) is the world size.
	Ranks []Placement

	// Nodes is the number of nodes; GPUsPerNode sizes each node.
	Nodes       int
	GPUsPerNode int

	// Hardware calibrations; zero values select defaults.
	GPU  gpu.Params
	PCIe pcie.Params
	IB   ib.Params

	// Engine configures the GPU datatype engine of every rank.
	Engine core.Options

	// Tuning bundles every protocol knob — eager threshold, pipeline
	// geometry, collective algorithm family, transfer strategy. Nil
	// selects the defaults. cluster.Spec.Tuned installs one.
	Tuning *Tuning

	// Faults installs a deterministic fault plan on every substrate
	// (IB fabric, PCIe nodes, GPUs). Nil — the default — keeps every
	// operation infallible and the simulated timeline byte-identical
	// to a build without the fault subsystem.
	Faults *fault.Plan
}

// World is a running simulated MPI job.
type World struct {
	eng    *sim.Engine
	cfg    Config
	tun    resolvedTuning // effective knobs; see resolveTuning
	nodes  []pcie.Node
	fabric *ib.Fabric
	hcas   []*ib.HCA
	ranks  []*Rank
	hier   hierarchy
	faults *fault.Injector // nil when cfg.Faults is nil
	wins   [][]mem.Buffer  // RMA window registry: wins[id][rank]
	recs   records         // free lists of message records (records.go)

	a2aViews map[int64]alltoallViews // hierAlltoall's, by bytes per pair

	groupSeq int // next Group id; each group owns its own tag block

	sent func(from, to int, bytes int64) // sees every collective send; set by tests only
}

// hierarchy is the node grouping the topology-aware collectives run
// over. It is only recognized for a blocked uniform layout — rank r on
// node r/rpn — because the hierarchical algorithms aggregate each
// node's slots as one contiguous slab; any other layout (or a single
// node, or one rank per node) keeps the zero value and the collectives
// stay flat.
type hierarchy struct {
	nodes int // nodes hosting ranks
	rpn   int // ranks per node
}

func detectHierarchy(ranks []Placement) hierarchy {
	nodes := 0
	for _, pl := range ranks {
		if pl.Node >= nodes {
			nodes = pl.Node + 1
		}
	}
	if nodes == 0 || len(ranks)%nodes != 0 {
		return hierarchy{}
	}
	rpn := len(ranks) / nodes
	for r, pl := range ranks {
		if pl.Node != r/rpn {
			return hierarchy{}
		}
	}
	return hierarchy{nodes: nodes, rpn: rpn}
}

// TopologyAware reports whether the world's collectives run the host
// leader algorithms — Bcast, Allgather, Alltoall and Allgatherv through
// one leader per node — rather than the flat ones: the blocked layout
// spans more than one node with more than one rank on each, and the
// world is not CollFlat. Reduce and Allreduce ask switchOn first: on a
// fabric with switch ALUs they may reduce in-network where this reports
// false (one rank per node, say); when they do not, they take the host
// leader tree exactly when this reports true.
func (w *World) TopologyAware() bool {
	return w.hier.nodes > 1 && w.hier.rpn > 1 && w.tun.coll != CollFlat
}

// NewWorld builds the cluster and one Rank per placement.
func NewWorld(cfg Config) *World {
	if len(cfg.Ranks) == 0 {
		panic("mpi: no ranks")
	}
	if cfg.Nodes == 0 {
		for _, pl := range cfg.Ranks {
			if pl.Node >= cfg.Nodes {
				cfg.Nodes = pl.Node + 1
			}
		}
	}
	if cfg.GPUsPerNode == 0 {
		cfg.GPUsPerNode = 1
		for _, pl := range cfg.Ranks {
			if pl.GPU >= cfg.GPUsPerNode {
				cfg.GPUsPerNode = pl.GPU + 1
			}
		}
	}
	if cfg.GPU.Name == "" {
		cfg.GPU = gpu.KeplerK40()
	}
	if cfg.PCIe.RootGBps == 0 {
		cfg.PCIe = pcie.DefaultParams()
	}
	cfg.IB = cfg.IB.WithDefaults()
	for r, pl := range cfg.Ranks {
		if pl.Node < 0 || pl.Node >= cfg.Nodes || pl.GPU < 0 || pl.GPU >= cfg.GPUsPerNode {
			panic(fmt.Sprintf("mpi: rank %d placement out of range", r))
		}
	}
	w := &World{eng: sim.NewEngine(), cfg: cfg}
	w.eng.Reserve(pcie.Capacity(cfg.Nodes, cfg.GPUsPerNode).Plus(cfg.IB.Capacity(cfg.Nodes)))
	w.recs.eager.shelf, w.recs.recv.shelf = &eagerShelf, &recvShelf
	w.tun = resolveTuning(cfg.Tuning)
	w.hier = detectHierarchy(cfg.Ranks)
	w.faults = fault.NewInjector(cfg.Faults)
	w.fabric = ib.NewFabric(w.eng, cfg.IB)
	w.fabric.SetFaults(w.faults)
	w.fabric.Reserve(cfg.Nodes, cfg.GPUsPerNode)
	w.hcas = make([]*ib.HCA, 0, cfg.Nodes)
	w.nodes = pcie.NewNodes(w.eng, cfg.Nodes, cfg.GPUsPerNode, cfg.GPU, cfg.PCIe, func(node *pcie.Node) {
		node.SetFaults(w.faults)
		w.hcas = append(w.hcas, w.fabric.Attach(node))
	})
	ranks := make([]Rank, len(cfg.Ranks))
	w.ranks = make([]*Rank, len(ranks))
	var engs sim.Slab[*core.Engine]
	engs.Reserve(len(ranks) * cfg.GPUsPerNode)
	for r, pl := range cfg.Ranks {
		w.ranks[r] = &ranks[r]
		ranks[r].init(w, r, pl, engs.TakeN(cfg.GPUsPerNode))
	}
	// Per-node routers deliver HCA arrivals to the addressed rank's
	// active-message inbox.
	route := func(p *sim.Proc, m ib.Msg) { w.ranks[m.Dst].inbox.Put(m) }
	for n, hca := range w.hcas {
		hca.Inbox().Init(w.eng, routerNames.Of(n)[0], route)
	}
	return w
}

// routerNames are a node's router, by node id.
var routerNames = sim.NewNameSet([]string{"node"}, ".ibrouter")

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Faults returns the world's fault injector (nil without a plan), for
// post-run inspection of injected-fault counts.
func (w *World) Faults() *fault.Injector { return w.faults }

// Close recycles every node's memory backing into the slab pool (see
// mem.Space.Release), every datatype engine's and every message
// record's kernel descriptor arrays into theirs (core.Engine.Release,
// records.retire), the eager and receive records onto their shelves
// (freeList.pour), and every rank's staging arena, reset with its
// pools, onto its shelf (shelveArenas). Call it when the world is
// finished — after Run has returned and results have been copied out —
// and do not touch the world, its ranks, or any Buffer afterwards.
// Benchmarks that churn through many short-lived worlds depend on this
// to avoid re-zeroing hundreds of MB of fresh memory per world.
func (w *World) Close() {
	for _, r := range w.ranks {
		for _, e := range r.engs {
			if e != nil {
				e.Release()
			}
		}
	}
	w.recs.retire()
	w.recs.eager.pour()
	w.recs.recv.pour()
	shelveArenas(w.ranks)
	for i := range w.nodes {
		w.nodes[i].Release()
	}
}

// FootprintBytes returns the real memory backing the world's simulated
// address spaces, summed over every node (host plus device) and every
// rank's staging arena. This is what the scale sweep reports as the
// per-rank memory of the real-payload arm, against which the
// modelled-payload flyweight worlds (internal/model, Result.StateBytes)
// are compared. An arena counts the backing its staging needs in this
// world (mem.Space.UsedBacking), not what an earlier world grew it to
// on the shelf, so the figure does not depend on what ran before. Call
// before Close — a released world's backing has returned to the slab
// pool.
func (w *World) FootprintBytes() int64 {
	var total int64
	for i := range w.nodes {
		total += w.nodes[i].FootprintBytes()
	}
	for _, r := range w.ranks {
		total += r.space.UsedBacking()
	}
	return total
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Node returns node n.
func (w *World) Node(n int) *pcie.Node { return &w.nodes[n] }

// Run executes fn once per rank (as concurrent simulated processes) and
// drives the simulation to completion.
func (w *World) Run(fn func(m *Rank)) {
	for _, r := range w.ranks {
		r.main = rankMain{r, fn}
		w.eng.Start(&r.proc, r.names.main, &r.main)
	}
	w.eng.Run()
}
