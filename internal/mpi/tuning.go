package mpi

import "gpuddt/internal/sim"

// Tuning is the one typed bundle of protocol knobs a world runs under:
// benchmarks and tools construct a Tuning and install it as
// Config.Tuning; everything else reads the resolved values. Zero fields
// select the defaults, so a nil and an empty Tuning are byte-identical.
type Tuning struct {
	// Eager bounds the packed size sent eagerly. nil means DefaultEager;
	// Eager(0) genuinely forces rendezvous for every message — the
	// pointer is what tells an explicit 0 from "unset".
	Eager *int64

	// FragBytes is the pipeline fragment size (0 = DefaultFragBytes).
	FragBytes int64

	// DirectRemoteUnpack unpacks straight out of the sender's device
	// memory instead of staging fragments (the paper's §5.2.1 ablation).
	DirectRemoteUnpack bool

	// Collectives selects the collective algorithm family; see CollMode.
	Collectives CollMode

	// Strategy overrides the rendezvous data-transfer strategy
	// (nil = the paper's pipelined protocols).
	Strategy Strategy
}

// The protocol defaults a Tuning's zero fields select. They are stated
// here only: the modelled worlds of internal/model read them too.
const (
	DefaultEager     = 64 << 10 // packed bytes sent eagerly
	DefaultFragBytes = 1 << 20  // rendezvous pipeline fragment size
)

// pipelineDepth is the number of fragment slots in a pipelined
// protocol's ring: a ring is frag × pipelineDepth bytes.
const pipelineDepth = 4

// AMLatency is the latency of a shared-memory active message between two
// ranks of one node. The modelled worlds of internal/model charge the
// same hop.
const AMLatency = 500 * sim.Nanosecond

// Eager returns a pointer to n for use as Tuning.Eager. Eager(0) is the
// explicit force-rendezvous setting.
func Eager(n int64) *int64 { return &n }

// CollMode selects the collective algorithm family.
type CollMode int

const (
	// CollAuto runs the hierarchical algorithms wherever the rank
	// layout supports them, and Reduce/Allreduce at the switches where
	// the fabric can fold them exactly (the default; see switchOn).
	CollAuto CollMode = iota

	// CollFlat forces the topology-blind algorithms everywhere; the
	// differential-testing oracle and the scaling benchmark's flat arm.
	CollFlat
)

// resolvedTuning is the world's effective knob set: every field
// concrete, defaults applied once at NewWorld.
type resolvedTuning struct {
	eager              int64
	frag               int64
	directRemoteUnpack bool
	coll               CollMode
	strategy           Strategy
}

// resolveTuning folds a Tuning (nil: all defaults) into the concrete
// knob set.
func resolveTuning(t *Tuning) resolvedTuning {
	r := resolvedTuning{
		eager: DefaultEager,
		frag:  DefaultFragBytes,
	}
	if t != nil {
		if t.Eager != nil {
			r.eager = *t.Eager
		}
		if t.FragBytes != 0 {
			r.frag = t.FragBytes
		}
		r.directRemoteUnpack = t.DirectRemoteUnpack
		r.coll = t.Collectives
		r.strategy = t.Strategy
	}
	if r.strategy == nil {
		r.strategy = &PipelinedStrategy{}
	}
	return r
}

// Tuning returns the world's effective knob set as a fully-populated
// Tuning value (Eager always non-nil), for reporting and tests.
func (w *World) Tuning() Tuning {
	return Tuning{
		Eager:              Eager(w.tun.eager),
		FragBytes:          w.tun.frag,
		DirectRemoteUnpack: w.tun.directRemoteUnpack,
		Collectives:        w.tun.coll,
		Strategy:           w.tun.strategy,
	}
}
