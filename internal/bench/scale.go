package bench

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"gpuddt/internal/cluster"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/model"
	"gpuddt/internal/mpi"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// The scale-out sweep: every collective is run twice on the same
// fat-tree world — once under the default dispatch (the topology-aware
// hierarchical algorithm; for reduce beyond two nodes, the in-network
// fold), once forced onto the flat (topology-blind) algorithm — and the
// two runs must produce byte-identical buffers on every rank. The
// virtual completion times of the pair give the speedup the default
// buys at that world size and oversubscription.

// ScaleColls is the collective set the sweep covers.
var ScaleColls = []string{"bcast", "allgather", "alltoall", "reduce"}

// ScaleSweep configures the scale-out sweep.
type ScaleSweep struct {
	Colls        []string
	Ranks        []int // total world sizes
	RanksPerNode int   // ranks per node at full scale (small worlds shrink to one node)
	Oversubs     []int // fat-tree oversubscription ratios

	// footprint records the world's real memory footprint per rank
	// (the committed sweep only). It depends on what the slab pool
	// holds when the world is built — the sweep's own earlier points,
	// so a process running the one sweep reproduces it, a second sweep
	// in the same process does not.
	footprint bool

	// MeasureHost additionally records what the host spent on each
	// point: wall-clock and Go HeapInuse. Off unless asked for
	// (scalebench -host): a report without it is a pure function of
	// the source.
	MeasureHost bool
}

// DefaultScaleSweep is the committed BENCH_scale.json sweep: 2 to 256
// ranks at 4 ranks per node, fully provisioned to 4:1 oversubscribed.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Colls:        ScaleColls,
		Ranks:        []int{2, 8, 32, 128, 256},
		RanksPerNode: 4,
		Oversubs:     []int{1, 2, 4},
		footprint:    true,
	}
}

// QuickScaleSweep is the CI smoke sweep.
func QuickScaleSweep() ScaleSweep {
	return ScaleSweep{
		Colls:        ScaleColls,
		Ranks:        []int{8, 32},
		RanksPerNode: 4,
		Oversubs:     []int{2},
	}
}

// ScalePoint is one (collective, world, oversubscription) measurement.
// Times are virtual (simulated) microseconds. HierUs is the default
// dispatch's arm (CollAuto), not always a host leader algorithm: a
// reduce over more than two nodes folds in-network there, so its
// Speedup, flat/hier, is flat over in-network. The JSON key keeps its
// name.
type ScalePoint struct {
	Coll         string  `json:"coll"`
	Nodes        int     `json:"nodes"`
	RanksPerNode int     `json:"ranks_per_node"`
	Ranks        int     `json:"ranks"`
	Oversub      int     `json:"oversub"`
	BytesPerRank int64   `json:"bytes_per_rank"`
	FlatUs       float64 `json:"flat_us"`
	HierUs       float64 `json:"hier_us"`
	Speedup      float64 `json:"speedup"`

	// Mode is "" for real-payload worlds (full protocol stack, real
	// buffers) and "modelled" for flyweight modelled-payload worlds
	// (internal/model on the sharded event engine).
	Mode string `json:"mode,omitempty"`

	// Shards is the sharded-engine partition count of a modelled point.
	Shards int `json:"shards,omitempty"`

	// SerialIdentical records that the modelled point was re-run on the
	// serial (1-shard) engine and produced byte-identical virtual times
	// and payload digests.
	SerialIdentical bool `json:"serial_identical,omitempty"`

	// Events counts dispatched engine events of a modelled point
	// (hier + flat arms).
	Events int64 `json:"events,omitempty"`

	// MemPerRank is the per-rank memory of the world: the structural
	// state of a modelled world, or (the committed sweep) the real backing
	// memory of a real-payload world.
	MemPerRank int64 `json:"mem_per_rank_bytes,omitempty"`

	// HeapInuse and WallMs are host-side measurements (MeasureHost
	// sweeps only): Go heap in use after the point, wall-clock to run
	// it.
	HeapInuse int64   `json:"heap_inuse_bytes,omitempty"`
	WallMs    float64 `json:"wall_ms,omitempty"`
}

// RunScale executes the sweep. Every point is verified: the
// hierarchical and flat runs must leave byte-identical packed buffers
// on every rank, or the point (and the whole sweep) is rejected.
func RunScale(sw ScaleSweep) ([]ScalePoint, error) {
	var pts []ScalePoint
	for _, coll := range sw.Colls {
		for _, ranks := range sw.Ranks {
			rpn := sw.RanksPerNode
			if ranks < rpn {
				rpn = ranks
			}
			if ranks%rpn != 0 {
				return nil, fmt.Errorf("scale: %d ranks not divisible by %d per node", ranks, rpn)
			}
			for _, ov := range sw.Oversubs {
				start := time.Now()
				pt, err := measureScale(coll, ranks/rpn, rpn, ov, sw.footprint)
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
	}
	return pts, nil
}

// measureScale times one collective hier vs flat on the same world.
// withMem records the world's memory footprint per rank, which depends
// on slab-pool history: without it the measurement is a pure function
// of its parameters.
func measureScale(coll string, nodes, rpn, oversub int, withMem bool) (ScalePoint, error) {
	hierT, hierSum, bytesPer, hierFoot := runScaleColl(coll, nodes, rpn, oversub, nil)
	flatT, flatSum, _, _ := runScaleColl(coll, nodes, rpn, oversub, &mpi.Tuning{Collectives: mpi.CollFlat})
	if !bytes.Equal(hierSum, flatSum) {
		return ScalePoint{}, fmt.Errorf("scale: %s %dx%d oversub %d: hierarchical payload differs from flat",
			coll, nodes, rpn, oversub)
	}
	pt := ScalePoint{
		Coll:         coll,
		Nodes:        nodes,
		RanksPerNode: rpn,
		Ranks:        nodes * rpn,
		Oversub:      oversub,
		BytesPerRank: bytesPer,
		FlatUs:       flatT.Micros(),
		HierUs:       hierT.Micros(),
		Speedup:      float64(flatT) / float64(hierT),
	}
	if withMem {
		pt.MemPerRank = hierFoot / int64(nodes*rpn)
	}
	return pt, nil
}

// scaleBlock is the non-contiguous unit the datatype collectives move:
// a 16x8 double sub-matrix in a leading dimension of 12 (1 KiB packed)
// — small enough that per-message costs dominate the flat algorithms,
// which is exactly the regime collective aggregation targets.
func scaleBlock() *datatype.Datatype { return shapes.SubMatrix(16, 8, 12) }

// reduceElems is the Int64 vector length the reduce sweep combines.
const reduceElems = 4096

// runScaleColl runs one collective on a Scale world under the given
// tuning (nil = defaults) and returns its completion time plus a digest
// of every rank's packed result.
func runScaleColl(coll string, nodes, rpn, oversub int, tun *mpi.Tuning) (sim.Time, []byte, int64, int64) {
	spec := cluster.Scale(nodes, rpn, rpn, oversub)
	cfg := spec.Tuned(tun).Config()
	w := mpi.NewWorld(cfg)
	defer w.Close()
	size := spec.Size()
	root := size - 1 // a non-leader root exercises the leader election

	imgs := make([][]byte, size)
	starts := make([]sim.Time, size)
	ends := make([]sim.Time, size)
	w.Run(func(m *mpi.Rank) {
		var run func()
		var result func() []byte
		switch coll {
		case "bcast":
			dt, count := scaleBlock(), 8
			buf := m.Malloc(dt.Span(count))
			if m.Rank() == root {
				mem.FillSynthetic(buf, uint64(1000+root))
			}
			run = func() { m.Bcast(buf, dt, count, root) }
			result = func() []byte { return datatype.PackImage(dt, count, buf.Bytes()) }
		case "allgather":
			dt, count := scaleBlock(), 1
			stride := int64(count) * dt.Extent()
			buf := m.Malloc(dt.Span(size * count))
			mem.FillSynthetic(buf.Slice(int64(m.Rank())*stride, dt.Span(count)), uint64(model.SeedAllgather+m.Rank()))
			run = func() { m.Allgather(buf, dt, count) }
			result = func() []byte { return datatype.PackImage(dt, size*count, buf.Bytes()) }
		case "alltoall":
			dt, count := scaleBlock(), 1
			sendBuf := m.Malloc(dt.Span(size * count))
			recvBuf := m.Malloc(dt.Span(size * count))
			mem.FillSynthetic(sendBuf, uint64(model.SeedAlltoall+m.Rank()))
			run = func() { m.Alltoall(sendBuf, dt, count, recvBuf, dt, count) }
			result = func() []byte { return datatype.PackImage(dt, size*count, recvBuf.Bytes()) }
		case "reduce":
			dt, count := datatype.Contiguous(reduceElems, datatype.Int64), 1
			sendBuf := m.Malloc(dt.Size())
			recvBuf := m.Malloc(dt.Size())
			mem.FillSynthetic(sendBuf, uint64(4000+m.Rank()))
			run = func() { m.Reduce(sendBuf, recvBuf, dt, count, mpi.OpSum, root) }
			result = func() []byte {
				if m.Rank() != root {
					return nil
				}
				return append([]byte(nil), recvBuf.Bytes()...)
			}
		default:
			panic("scale: unknown collective " + coll)
		}
		m.Barrier()
		starts[m.Rank()] = m.Now()
		run()
		ends[m.Rank()] = m.Now()
		imgs[m.Rank()] = result()
	})

	// Completion time of the whole operation: first entry to last exit.
	t0, t1 := starts[0], ends[0]
	for r := 1; r < size; r++ {
		if starts[r] < t0 {
			t0 = starts[r]
		}
		if ends[r] > t1 {
			t1 = ends[r]
		}
	}
	elapsed := t1 - t0

	h := sha256.New()
	var per int64
	for r, img := range imgs {
		if r == 0 && len(img) > 0 {
			per = int64(len(img))
		}
		h.Write(img)
	}
	if coll == "reduce" {
		per = reduceElems * 8
	}
	return elapsed, h.Sum(nil), per, w.FootprintBytes()
}
