// Package tune is the adaptive protocol auto-tuner: it searches the
// protocol knob space — eager/rendezvous threshold, pipeline fragment
// size, collective algorithm family (flat, host-hierarchical, or
// SHARP-style in-network) — against simulated virtual time, one entry
// per (topology class, message-size bucket, datatype class) key, and
// persists the result as a versioned JSON tuning table. RunBench (the
// tunebench report) replays every entry against the defaults at the
// point it was found; a caller of its own looks an entry up
// (Table.Lookup), materializes it (Entry.Tuning) and installs it on a
// cluster.Spec (Spec.Tuned). The paper hand-tuned these constants per
// machine (§5); TEMPI-style canonical datatype classes keep the key
// space small enough that a committed table generalizes.
//
// Every candidate evaluation is digest-verified against the default
// configuration's payload, so a tuning table can change *when* bytes
// move but never *which* bytes arrive.
package tune

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mpi"
)

// SizeClass buckets a packed message size for table keys. Non-positive
// sizes mean "whole application" (the BENCH_apps-style objectives,
// which have no single message size).
func SizeClass(bytes int64) string {
	switch {
	case bytes <= 0:
		return "app"
	case bytes <= 4<<10:
		return "4K"
	case bytes <= 64<<10:
		return "64K"
	case bytes <= 1<<20:
		return "1M"
	case bytes <= 16<<20:
		return "16M"
	default:
		return "big"
	}
}

// DTClass buckets a datatype the way TEMPI's canonicalization does:
// contiguous, canonical-vector (one strided block pattern), or
// irregular. Collective and application objectives use their own
// namespaced classes ("coll:allreduce", "app:ml-ring") so they never
// collide with point-to-point entries.
func DTClass(dt *datatype.Datatype) string {
	if dt.IsContiguous() {
		return "contig"
	}
	if dt.Plan().Canonical() != nil {
		return "vector"
	}
	return "irregular"
}

// Key addresses one tuning-table entry.
type Key struct {
	Topo string // cluster.Spec.TopoClass: "smp", "flat", "fatN"
	Size string // SizeClass bucket
	DT   string // DTClass, "coll:<op>", or "app:<family>"
}

// String is the table-entry key encoding.
func (k Key) String() string { return k.Topo + "/" + k.Size + "/" + k.DT }

// Entry is one tuned operating point plus the measurements that chose
// it, so a table is self-documenting about what it bought.
type Entry struct {
	Eager     int64   `json:"eager"`
	Frag      int64   `json:"frag"`
	Coll      string  `json:"coll"`
	DefaultUs float64 `json:"default_us"`
	TunedUs   float64 `json:"tuned_us"`
}

// Tuning materializes the entry as the typed knob bundle worlds run
// under. Eager is always set explicitly (Entry semantics have no
// "unset": 0 really means force-rendezvous).
func (e Entry) Tuning() (*mpi.Tuning, error) {
	coll, ok := mpi.ParseCollMode(e.Coll)
	if !ok {
		return nil, fmt.Errorf("tune: entry has unknown collective mode %q", e.Coll)
	}
	return &mpi.Tuning{
		Eager:       mpi.Eager(e.Eager),
		FragBytes:   e.Frag,
		Collectives: coll,
	}, nil
}
