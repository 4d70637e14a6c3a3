// Package cluster is the single API that names "the machine": a Spec
// describes the cluster shape (nodes × GPUs × ranks per node) and the
// hardware calibrations (GPU, PCIe, IB fabric tier) in one value, and
// builds from it the mpi.Config — substrates plus rank placements —
// that every benchmark, conformance harness and command constructs its
// world from. Before this package the same information was smeared
// across gpu.KeplerK40(), pcie.DefaultParams(), ib.DefaultParams() and
// hand-written mpi.Placement literals at every call site.
//
// Ranks are placed blocked — rank r on node r/RanksPerNode, on GPU
// (r mod RanksPerNode) mod GPUsPerNode — which is exactly the layout
// the topology-aware collectives in internal/mpi recognize.
package cluster

import (
	"fmt"

	"gpuddt/internal/gpu"
	"gpuddt/internal/ib"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
)

// Spec names a cluster shape. The zero values of the hardware fields
// select the paper's PSG-cluster calibration (Kepler K40, Gen3 PCIe,
// flat FDR InfiniBand).
type Spec struct {
	// Nodes is the number of nodes (default 1).
	Nodes int

	// GPUsPerNode sizes each node (default 1).
	GPUsPerNode int

	// RanksPerNode is how many MPI ranks each node hosts (default
	// GPUsPerNode). Ranks beyond the GPU count share GPUs round-robin.
	RanksPerNode int

	// Hardware calibrations; zero values select defaults. IB.Topo picks
	// the fabric tier: the zero value is the flat single switch, a
	// LeafRadix turns on the two-tier fat tree.
	GPU  gpu.Params
	PCIe pcie.Params
	IB   ib.Params

	// Modelled selects the flyweight modelled-payload execution mode
	// (internal/model): ranks become state machines sharing immutable
	// datatypes, payload bytes become digest-checked synthetic
	// generators, and the world runs on the sharded event engine. A
	// modelled Spec cannot build an mpi.World — it exists so sweeps
	// carry both modes through one description of "the machine".
	Modelled bool

	// Shards is the sharded-engine partition count for Modelled specs
	// (clamped to the fat-tree leaf count; 0 means 1, one heap for the
	// whole world). Ignored for real-payload worlds.
	Shards int

	// Tuning overrides the world's protocol knobs — eager threshold,
	// pipeline geometry, collective algorithm family. Nil selects the
	// mpi defaults. Install it with Tuned; it rides into the mpi.Config
	// that Config builds.
	Tuning *mpi.Tuning
}

// normalized fills the shape defaults (hardware defaults are filled by
// mpi.NewWorld, as before).
func (s Spec) normalized() Spec {
	if s.Nodes == 0 {
		s.Nodes = 1
	}
	if s.GPUsPerNode == 0 {
		s.GPUsPerNode = 1
	}
	if s.RanksPerNode == 0 {
		s.RanksPerNode = s.GPUsPerNode
	}
	return s
}

// Size returns the world size (total rank count).
func (s Spec) Size() int {
	s = s.normalized()
	return s.Nodes * s.RanksPerNode
}

// Placements returns the blocked rank placement: rank r on node
// r/RanksPerNode, GPUs shared round-robin within the node.
func (s Spec) Placements() []mpi.Placement {
	s = s.normalized()
	pls := make([]mpi.Placement, 0, s.Size())
	for r := 0; r < s.Size(); r++ {
		pls = append(pls, mpi.Placement{
			Node: r / s.RanksPerNode,
			GPU:  (r % s.RanksPerNode) % s.GPUsPerNode,
		})
	}
	return pls
}

// Config builds the mpi.Config for the spec, carrying the spec's
// Tuning. Callers customize the remaining runtime knobs (Engine,
// Faults) on the result before handing it to mpi.NewWorld.
func (s Spec) Config() mpi.Config {
	s = s.normalized()
	return mpi.Config{
		Ranks:       s.Placements(),
		Nodes:       s.Nodes,
		GPUsPerNode: s.GPUsPerNode,
		GPU:         s.GPU,
		PCIe:        s.PCIe,
		IB:          s.IB,
		Tuning:      s.Tuning,
	}
}

// Tuned returns a copy of the spec with the tuning override installed.
func (s Spec) Tuned(t *mpi.Tuning) Spec {
	s.Tuning = t
	return s
}

// String names the shape, e.g. "4x2 (fat-tree 8:4)".
func (s Spec) String() string {
	s = s.normalized()
	out := fmt.Sprintf("%dx%d", s.Nodes, s.RanksPerNode)
	if t := s.IB.Topo; t.Hierarchical() {
		out += fmt.Sprintf(" (fat-tree %d:%d)", t.LeafRadix, t.Spines)
	}
	if s.Modelled {
		sh := s.Shards
		if sh < 1 {
			sh = 1
		}
		out += fmt.Sprintf(" [modelled x%d]", sh)
	}
	return out
}

// OneGPU is the paper's 1-GPU configuration: two ranks sharing one GPU
// on one node (CUDA IPC over the same device).
func OneGPU() Spec { return Spec{Nodes: 1, GPUsPerNode: 1, RanksPerNode: 2} }

// TwoGPU is the paper's 2-GPU configuration: two ranks on one node,
// one GPU each (P2P over PCIe).
func TwoGPU() Spec { return Spec{Nodes: 1, GPUsPerNode: 2, RanksPerNode: 2} }

// TwoNode is the paper's InfiniBand configuration: one rank on each of
// two nodes on the flat fabric.
func TwoNode() Spec { return Spec{Nodes: 2, GPUsPerNode: 1, RanksPerNode: 1} }

// ByName maps the conventional topology names ("1gpu", "2gpu", "ib")
// used by flags and test matrices to their Spec.
func ByName(name string) Spec {
	switch name {
	case "1gpu":
		return OneGPU()
	case "2gpu":
		return TwoGPU()
	case "ib":
		return TwoNode()
	default:
		panic(fmt.Sprintf("cluster: unknown topology %q", name))
	}
}

// scaleLeafRadix is the fat-tree leaf radix Scale uses: 8 nodes per
// leaf switch, a common production port split.
const scaleLeafRadix = 8

// Scale names a scaled-out cluster: nodes × gpusPerNode with
// ranksPerNode ranks each (0 = one per GPU) on a two-tier fat tree of
// 8-port leaves, oversub:1 oversubscribed (1 = fully provisioned,
// 2 = half the uplinks, ...). A single-leaf cluster (≤ 8 nodes) still
// instantiates the hierarchy so spine hops and uplink sharing are
// modeled consistently across sweep points.
func Scale(nodes, gpusPerNode, ranksPerNode, oversub int) Spec {
	if oversub < 1 {
		oversub = 1
	}
	spines := scaleLeafRadix / oversub
	if spines < 1 {
		spines = 1
	}
	ibp := ib.DefaultParams()
	ibp.Topo = ib.FatTree(scaleLeafRadix, spines)
	return Spec{
		Nodes:        nodes,
		GPUsPerNode:  gpusPerNode,
		RanksPerNode: ranksPerNode,
		IB:           ibp,
	}
}

// ScaleModelled is Scale in the flyweight modelled-payload mode with
// the given engine shard count — the shape mega-scale sweeps (1k-16k+
// ranks) run at, where building real buffers and goroutines per rank
// is off the table.
func ScaleModelled(nodes, gpusPerNode, ranksPerNode, oversub, shards int) Spec {
	s := Scale(nodes, gpusPerNode, ranksPerNode, oversub)
	s.Modelled = true
	s.Shards = shards
	return s
}
