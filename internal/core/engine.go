// Package core implements the paper's contribution: a datatype engine for
// non-contiguous GPU-resident data (HPDC'16, §3).
//
// The engine re-encodes any MPI datatype into Datatype Engine Vector
// entries — <memory displacement, packed displacement, length> tuples —
// splits them into equally sized CUDA-DEV work units of size S that map
// one-to-one onto warps (§3.2), and executes pack/unpack as GPU kernels.
// Units are held as runs of equal, evenly strided units from conversion
// to kernel (see Entry; DESIGN decision 30). The CPU-side conversion is
// pipelined with kernel execution, and the split unit list can be
// cached (keyed by datatype and count) so repeat transfers skip
// conversion entirely. Datatypes whose layout is an evenly
// strided vector bypass conversion: their list is one run, moved by the
// specialized vector kernel of §3.1.
//
// The engine is the stack's one convertor, as Open MPI's is beneath its
// PML and BTLs (§4): it moves the bytes of any (buffer, datatype,
// count), host-resident data on the CPU through the datatype converter,
// charging the node's host bus.
package core

import (
	"fmt"
	"math"

	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/sim"
)

// Entry is a run of More+1 CUDA-DEV work units before it is bound to a
// direction: unit j is Len bytes at MemOff+j*Stride in the non-contiguous
// data, corresponding to PackOff+j*Len in the packed stream — the packed
// side of a run is contiguous, its memory side steps by a constant
// stride. The zero More and Stride are one unit. Partial marks units
// shorter than the split size S. A list of runs is a lossless encoding
// of the unit list: expanded, it gives the units one by one.
type Entry struct {
	MemOff  int64
	PackOff int64
	Len     int32
	More    int32 // units after the first
	Stride  int32 // memory-side step between units
	Partial bool
}

// end is the packed offset just past the run.
func (e *Entry) end() int64 { return e.PackOff + (int64(e.More)+1)*int64(e.Len) }

// units is the number of units the run stands for.
func (e *Entry) units() int64 { return int64(e.More) + 1 }

// Options configure the engine. Zero values select the defaults
// documented on each field via DefaultOptions.
type Options struct {
	// UnitSize is S, the CUDA-DEV split size. The paper requires a
	// multiple of 8 bytes x the warp width (lower bound 256 B) and uses
	// 1-4 KB to enable loop unrolling; default 1 KB.
	UnitSize int64

	// ChunkBytes is how much packed data the CPU converts before
	// launching a kernel for it, enabling the conversion/execution
	// pipeline of §3.2. Default 2 MiB.
	ChunkBytes int64

	// NoPipeline disables the conversion/kernel pipeline: the whole
	// datatype is converted before the first launch (the paper's
	// non-pipelined baseline in Fig. 7).
	NoPipeline bool

	// NoCacheDEV disables caching the split unit list in GPU memory
	// (cached lists are keyed by datatype and count).
	NoCacheDEV bool

	// DisableVectorKernel forces the generic DEV path even for vector
	// layouts (ablation).
	DisableVectorKernel bool
}

// Calibration the engine is not configured with: nothing ever ran at
// another value.
const (
	// convPerEntry and convPerUnit are the CPU costs of converting one
	// datatype block into a DEV entry and of emitting one split CUDA-DEV
	// unit, respectively.
	convPerEntry = 40 * sim.Nanosecond
	convPerUnit  = 8 * sim.Nanosecond

	// remoteAccessEff derates PCIe utilization when a kernel reads
	// scattered data directly from a peer GPU's memory (§5.2.1: direct
	// remote unpack generates too much traffic and under-utilizes
	// PCI-E).
	remoteAccessEff = 0.7
)

// DefaultOptions returns the calibrated defaults.
func DefaultOptions() Options {
	return Options{
		UnitSize:   1024,
		ChunkBytes: 2 << 20,
	}
}

// cacheKey identifies a converted unit list in its engine's DEV cache.
type cacheKey struct {
	dt    *datatype.Datatype
	count int
}

type cacheVal struct {
	entries []Entry
}

// Engine is a per-process datatype engine bound to one device: kernels
// on that device move device-resident data, the CPU of its node moves
// host-resident data.
type Engine struct {
	ctx    *cuda.Ctx
	dev    *gpu.Device
	stream gpu.Stream  // pack and unpack kernels
	app    *gpu.Stream // the application's kernels, made by the first Stream call
	opts   Options
	idle   []*borrowed  // workers between two calls that borrow them
	idle1  [1]*borrowed // idle's array while one is enough

	// cache is the DEV cache (§3.2): each converted unit list, kept
	// once and never evicted. It is the engine's own — a hit skips
	// conversion that virtual time charges, so sibling engines on one
	// device never serve each other's lists.
	cache map[cacheKey]*cacheVal

	// statistics
	convUnits int64
	cacheHits int64
}

// streamNames are an engine's two streams, by device id.
var streamNames = sim.NewNameSet([]string{"gpu"}, ".ddt", ".app")

// New creates an engine for GPU devID of the context's node. Pack and
// unpack kernels run on a stream of the engine's own, so they overlap
// with kernels and copies the application issues on other streams.
func New(ctx *cuda.Ctx, devID int, opts Options) *Engine {
	e := new(Engine)
	e.Init(ctx, devID, opts)
	return e
}

// Init makes e, a field of a larger record, the engine New would
// return. e must not be copied afterwards.
func (e *Engine) Init(ctx *cuda.Ctx, devID int, opts Options) {
	def := DefaultOptions()
	if opts.UnitSize == 0 {
		opts.UnitSize = def.UnitSize
	}
	if opts.UnitSize%256 != 0 {
		panic(fmt.Sprintf("core: unit size %d must be a multiple of 256 (8 bytes x warp width)", opts.UnitSize))
	}
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = def.ChunkBytes
	}
	dev := ctx.Node().GPU(devID)
	*e = Engine{ctx: ctx, dev: dev, opts: opts}
	e.idle = e.idle1[:0]
	e.stream.Init(dev, streamNames.Of(devID)[0])
}

// Device returns the engine's GPU.
func (e *Engine) Device() *gpu.Device { return e.dev }

// Stream returns the application's stream on the engine's GPU, made on
// first call: its compute kernels never delay the engine's packs and
// unpacks, which run on a stream of their own.
func (e *Engine) Stream() *gpu.Stream {
	if e.app == nil {
		e.app = new(gpu.Stream)
		e.app.Init(e.dev, streamNames.Of(e.dev.ID())[1])
	}
	return e.app
}

// ConvertedUnits returns the cumulative number of CUDA-DEV units
// produced by CPU-side conversion (cache misses only).
func (e *Engine) ConvertedUnits() int64 { return e.convUnits }

// count bumps a recorder counter when tracing is on (the engine may be
// called outside any process, so it cannot use Proc.Count).
func (e *Engine) count(name string, delta int64) {
	if rec := e.ctx.Engine().Recorder(); rec != nil {
		rec.Count(name, delta)
	}
}

// lookupCache returns the cached unit list for (dt, count), if enabled
// and present.
func (e *Engine) lookupCache(dt *datatype.Datatype, count int) *cacheVal {
	if e.opts.NoCacheDEV {
		return nil
	}
	val := e.cache[cacheKey{dt, count}]
	if val != nil {
		e.count("core.dev.hit", 1)
	} else {
		e.count("core.dev.miss", 1)
	}
	return val
}

// storeCache keeps a fully converted list, unless one for (dt, count)
// was stored while it was being built.
func (e *Engine) storeCache(dt *datatype.Datatype, count int, entries []Entry) {
	key := cacheKey{dt, count}
	if e.cache[key] != nil {
		return
	}
	if e.cache == nil {
		e.cache = make(map[cacheKey]*cacheVal)
	}
	e.cache[key] = &cacheVal{entries: entries}
}

// entryDevBytes is sizeof(cuda_dev_dist): three 8-byte fields (§3.2).
const entryDevBytes = 24

// runs appends units to a list of runs. A unit extends the last run
// when it continues it — same Len and Partial, next in the packed
// stream, one stride on in memory — unless that run is before mark, and
// so belongs to an earlier chunk. In counting mode (count) it keeps no
// list: it counts the runs in n and keeps the last in tail.
type runs struct {
	list  []Entry
	mark  int   // index into list, or into the count
	unit  int64 // the split size S
	units int64 // units appended
	count bool
	n     int
	tail  Entry
}

// last returns the run a unit may extend, or nil.
func (r *runs) last() *Entry {
	switch {
	case r.count && r.n > r.mark:
		return &r.tail
	case !r.count && len(r.list) > r.mark:
		return &r.list[len(r.list)-1]
	}
	return nil
}

// add appends n units of l bytes, the first at memOff in memory and
// packOff in the packed stream, each next one stride bytes further in
// memory and l further packed. stride must fit 32 bits when n > 1.
func (r *runs) add(memOff, packOff int64, l int32, n, stride int64, partial bool) {
	r.units += n
	if last := r.last(); last != nil {
		step := memOff - (last.MemOff + int64(last.More)*int64(last.Stride))
		s := int64(last.Stride)
		if last.More == 0 {
			s = step // one unit takes the stride of what continues it
		}
		if last.Len == l && last.Partial == partial && last.end() == packOff && step == s && fits32(s) &&
			(n == 1 || stride == s) && int64(last.More)+n <= math.MaxInt32 {
			last.More, last.Stride = last.More+int32(n), int32(s)
			return
		}
	}
	for n > 0 {
		k := min(n, math.MaxInt32)
		e := Entry{MemOff: memOff, PackOff: packOff, Len: l, More: int32(k - 1), Partial: partial}
		if k > 1 {
			e.Stride = int32(stride)
		}
		if r.count {
			r.tail = e
			r.n++
		} else {
			r.list = append(r.list, e)
		}
		memOff, packOff, n = memOff+k*stride, packOff+k*int64(l), n-k
	}
}

// piece appends the units of one converter piece of l bytes: whole
// units of S bytes, then the rest, partial.
func (r *runs) piece(memOff, packOff, l int64) {
	if k := l / r.unit; k > 0 {
		r.add(memOff, packOff, int32(r.unit), k, r.unit, false)
		memOff, packOff, l = memOff+k*r.unit, packOff+k*r.unit, l-k*r.unit
	}
	if l > 0 {
		r.add(memOff, packOff, int32(l), 1, 0, true)
	}
}

// canon appends the units of packed window [start, end) of count
// repetitions, extent apart, of the canonical layout cv, and returns the
// pieces a converter walk would emit there: one per block the window
// touches. Whole blocks of at most S bytes go a segment of an inner run
// at a time — the blocks are never walked; a block the window cuts, and
// every block when blocks are longer than S or their stride does not fit
// a unit, goes as a piece.
func (r *runs) canon(cv *datatype.CanonVec, extent, start, end int64) (pieces int64) {
	bl, nb := cv.BlockLen, cv.NumBlocks()
	whole := bl <= r.unit && fits32(cv.InnerStride)
	for pos := start; pos < end; {
		g, off := pos/bl, pos%bl
		memOff := g/nb*extent + cv.BlockOff(g%nb) + off
		if k := min((end-pos)/bl, cv.Inner-g%nb%cv.Inner); whole && off == 0 && k > 0 {
			r.add(memOff, pos, int32(bl), k, cv.InnerStride, bl < r.unit)
			pos += k * bl
			continue
		}
		take := min(bl-off, end-pos)
		r.piece(memOff, pos, take)
		pos += take
	}
	if end > start {
		pieces = (end-1)/bl - start/bl + 1
	}
	return pieces
}

// fits32 reports whether x fits a unit's 32-bit stride.
func fits32(x int64) bool { return x == int64(int32(x)) }
