package bench

import (
	"fmt"
	"runtime"
	"time"

	"gpuddt/internal/cluster"
	"gpuddt/internal/model"
)

// The mega-scale sweep: the modelled-payload counterpart of RunScale,
// producing the same hier-vs-flat ScalePoints for alltoall/allgather
// at world sizes (1k, 4k, 16k+ ranks) where building a real-payload
// world — goroutines, protocol stacks, device buffers — is off the
// table. Ranks are flyweight state machines on the sharded event
// engine; payloads are digest-checked synthetic generators. Every
// point still verifies hier-vs-flat payload identity (over the sampled
// ranks), and points small enough re-run on one shard to prove the
// times byte-identical at the sweep's shard count.

// MegaColls is the collective set the modelled sweep covers.
var MegaColls = []string{"alltoall", "allgather"}

// serialVerifyMax bounds the points re-run on one shard: a point of at
// most this many ranks must match its sharded run byte for byte
// (virtual time, digest, message and event counts).
const serialVerifyMax = 1024

// MegaShape is one (world size, oversubscription) sweep point.
type MegaShape struct {
	Ranks   int
	Oversub int
}

// MegaSweep configures the modelled mega-scale sweep.
type MegaSweep struct {
	Colls        []string
	Shapes       []MegaShape
	RanksPerNode int
	Shards       int // sharded-engine partitions (clamped to leaf count)
	SampleRanks  int // ranks with full content verification per point

	// MeasureHost records wall-clock and Go HeapInuse per point (see
	// ScaleSweep.MeasureHost).
	MeasureHost bool
}

// DefaultMegaSweep is the committed BENCH_scale.json modelled sweep:
// the overlap sizes (32-256 ranks, where the real-payload sweep also
// runs) with full serial identity gating, then 1k/4k ranks across
// oversubscription ratios, and the 16384-rank headline point.
func DefaultMegaSweep() MegaSweep {
	var shapes []MegaShape
	for _, r := range []int{32, 128, 256, 1024, 4096} {
		for _, ov := range []int{1, 2, 4} {
			shapes = append(shapes, MegaShape{Ranks: r, Oversub: ov})
		}
	}
	shapes = append(shapes, MegaShape{Ranks: 16384, Oversub: 2})
	return MegaSweep{
		Colls:        MegaColls,
		Shapes:       shapes,
		RanksPerNode: 4,
		Shards:       8,
		SampleRanks:  64,
	}
}

// QuickMegaSweep is the CI smoke sweep: small enough to finish in
// seconds, still crossing the real sweep's ceiling (1024 > 256) and
// serially verifying every point.
func QuickMegaSweep() MegaSweep {
	return MegaSweep{
		Colls:        MegaColls,
		Shapes:       []MegaShape{{32, 2}, {128, 2}, {1024, 2}},
		RanksPerNode: 4,
		Shards:       4,
		SampleRanks:  16,
	}
}

// RunMega executes the modelled sweep. Every point runs the
// hierarchical and flat schedules on the same modelled fabric; their
// sampled payload digests must agree, and points under the serial
// gate must reproduce byte-identically on the 1-shard engine.
func RunMega(sw MegaSweep) ([]ScalePoint, error) {
	var pts []ScalePoint
	for _, coll := range sw.Colls {
		for _, shape := range sw.Shapes {
			rpn := sw.RanksPerNode
			if shape.Ranks < rpn {
				rpn = shape.Ranks
			}
			if shape.Ranks%rpn != 0 {
				return nil, fmt.Errorf("mega: %d ranks not divisible by %d per node", shape.Ranks, rpn)
			}
			start := time.Now()
			pt, err := measureMega(coll, shape.Ranks/rpn, rpn, shape.Oversub, sw)
			if err != nil {
				return nil, err
			}
			if sw.MeasureHost {
				pt.WallMs = float64(time.Since(start)) / float64(time.Millisecond)
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				pt.HeapInuse = int64(ms.HeapInuse)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// measureMega measures one modelled point: hier and flat arms, digest
// identity between them, and (under the gate) serial identity.
func measureMega(coll string, nodes, rpn, oversub int, sw MegaSweep) (ScalePoint, error) {
	spec := cluster.ScaleModelled(nodes, rpn, rpn, oversub, sw.Shards)
	opt := model.Options{
		Spec:        spec,
		Coll:        coll,
		Dt:          scaleBlock(),
		Count:       1,
		SampleRanks: sw.SampleRanks,
	}

	opt.Flat = false
	hier, err := model.Run(opt)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("mega: %s %dx%d oversub %d hier: %w", coll, nodes, rpn, oversub, err)
	}
	opt.Flat = true
	flat, err := model.Run(opt)
	if err != nil {
		return ScalePoint{}, fmt.Errorf("mega: %s %dx%d oversub %d flat: %w", coll, nodes, rpn, oversub, err)
	}
	if hier.Digest != flat.Digest {
		return ScalePoint{}, fmt.Errorf("mega: %s %dx%d oversub %d: hierarchical payload differs from flat",
			coll, nodes, rpn, oversub)
	}

	ranks := nodes * rpn
	pt := ScalePoint{
		Coll:         coll,
		Nodes:        nodes,
		RanksPerNode: rpn,
		Ranks:        ranks,
		Oversub:      oversub,
		BytesPerRank: int64(ranks) * scaleBlock().Size(),
		FlatUs:       flat.Time.Micros(),
		HierUs:       hier.Time.Micros(),
		Speedup:      float64(flat.Time) / float64(hier.Time),
		Mode:         "modelled",
		Shards:       hier.Shards,
		Events:       hier.Events + flat.Events,
		MemPerRank:   (hier.StateBytes + flat.StateBytes) / int64(2*ranks),
	}

	if ranks <= serialVerifyMax {
		serial := opt
		serial.Spec.Shards = 0
		serial.Shards = 1
		serial.Flat = false
		sh, err := model.Run(serial)
		if err != nil {
			return ScalePoint{}, err
		}
		serial.Flat = true
		sf, err := model.Run(serial)
		if err != nil {
			return ScalePoint{}, err
		}
		if sh.Time != hier.Time || sf.Time != flat.Time ||
			sh.Digest != hier.Digest || sf.Digest != flat.Digest ||
			sh.Messages != hier.Messages || sf.Messages != flat.Messages ||
			sh.Events != hier.Events || sf.Events != flat.Events {
			return ScalePoint{}, fmt.Errorf(
				"mega: %s %dx%d oversub %d: sharded run (x%d) diverged from serial engine (hier %v/%v, flat %v/%v)",
				coll, nodes, rpn, oversub, hier.Shards, hier.Time, sh.Time, flat.Time, sf.Time)
		}
		pt.SerialIdentical = true
	}
	return pt, nil
}
