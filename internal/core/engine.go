// Package core implements the paper's contribution: a datatype engine for
// non-contiguous GPU-resident data (HPDC'16, §3).
//
// The engine re-encodes any MPI datatype into Datatype Engine Vector
// entries — <memory displacement, packed displacement, length> tuples —
// splits them into equally sized CUDA-DEV work units of size S that map
// one-to-one onto warps (§3.2), and executes pack/unpack as GPU kernels.
// The CPU-side conversion is pipelined with kernel execution, and the
// split unit list can be cached (keyed by datatype and count) so repeat
// transfers skip conversion entirely. Datatypes whose layout is an evenly
// strided vector bypass conversion and use the specialized vector kernel
// of §3.1.
package core

import (
	"fmt"

	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Entry is one CUDA-DEV work unit before it is bound to a direction:
// Len bytes at MemOff in the non-contiguous data correspond to PackOff in
// the packed stream. Partial marks units shorter than the split size S.
type Entry struct {
	MemOff  int64
	PackOff int64
	Len     int32
	Partial bool
}

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

	// Blocks requests a kernel grid size (0 = device default); used by
	// the §5.3 minimal-resources study.
	Blocks int

	// DisableVectorKernel forces the generic DEV path even for vector
	// layouts (ablation).
	DisableVectorKernel bool

	// CacheBytes is the per-device byte budget of the DEV descriptor
	// cache (default DefaultCacheBytes). The budget is shared by all
	// engines on a device; the first engine created on the device fixes
	// it. Unit lists larger than the whole budget are not cached.
	CacheBytes int64
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
		CacheBytes: DefaultCacheBytes,
	}
}

type cacheVal struct {
	entries []Entry
	devBuf  mem.Buffer // descriptor array resident in GPU memory
}

// Engine is a per-process GPU datatype engine bound to one device.
type Engine struct {
	ctx    *cuda.Ctx
	dev    *gpu.Device
	stream *gpu.Stream
	opts   Options
	cache  *DevCache   // device-wide, shared with sibling engines
	idle   []*borrowed // workers between two calls that borrow them

	// statistics
	convEntries int64
	convUnits   int64
	cacheHits   int64
}

// New creates an engine for GPU devID of the context's node. Pack and
// unpack kernels run on a dedicated stream so they overlap with copies
// issued on other streams.
func New(ctx *cuda.Ctx, devID int, opts Options) *Engine {
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
	if opts.CacheBytes == 0 {
		opts.CacheBytes = def.CacheBytes
	}
	dev := ctx.Node().GPU(devID)
	cache, _ := dev.DDTCache().(*DevCache)
	if cache == nil {
		cache = newDevCache(opts.CacheBytes)
		dev.SetDDTCache(cache)
	}
	return &Engine{
		ctx:    ctx,
		dev:    dev,
		stream: dev.NewStream("ddt"),
		opts:   opts,
		cache:  cache,
	}
}

// Device returns the engine's GPU.
func (e *Engine) Device() *gpu.Device { return e.dev }

// Stream returns the engine's pack/unpack stream.
func (e *Engine) Stream() *gpu.Stream { return e.stream }

// CacheHits returns how many pack/unpack setups were served from the
// DEV cache.
func (e *Engine) CacheHits() int64 { return e.cacheHits }

// ConvertedUnits returns the cumulative number of CUDA-DEV units
// produced by CPU-side conversion (cache misses only).
func (e *Engine) ConvertedUnits() int64 { return e.convUnits }

// DevCache returns the device-wide descriptor cache the engine stores
// its unit lists in.
func (e *Engine) DevCache() *DevCache { return e.cache }

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
	val := e.cache.lookup(devKey{e, dt, count})
	if val != nil {
		e.count("core.dev.hit", 1)
	} else {
		e.count("core.dev.miss", 1)
	}
	return val
}

// storeCache saves a fully converted unit list and charges the GPU
// memory that holds the descriptor array (the paper's "few MBs of GPU
// memory", §5.1). Lists that could never fit the device budget are not
// cached; stores that push the cache over budget evict older lists and
// release their descriptor arrays. It reports whether the cache took
// the list (and with it the slice).
func (e *Engine) storeCache(dt *datatype.Datatype, count int, entries []Entry) bool {
	key := devKey{e, dt, count}
	bytes := int64(len(entries)) * entryDevBytes
	if e.cache.contains(key) || !e.cache.admits(bytes) {
		return false
	}
	devBuf := e.dev.Mem().Alloc(bytes, 256)
	evicted := e.cache.store(key, &cacheVal{entries: entries, devBuf: devBuf}, bytes)
	for _, b := range evicted {
		e.count("core.dev.evict", 1)
		b.Space().Free(b)
	}
	return true
}

// entryDevBytes is sizeof(cuda_dev_dist): three 8-byte fields (§3.2).
const entryDevBytes = 24

// splitEntries appends the CUDA-DEV units for one converter emission.
func splitEntries(dst []Entry, unitSize, memOff, packOff, n int64) []Entry {
	for n > 0 {
		take := unitSize
		if n < take {
			take = n
		}
		dst = append(dst, Entry{
			MemOff:  memOff,
			PackOff: packOff,
			Len:     int32(take),
			Partial: take < unitSize,
		})
		memOff += take
		packOff += take
		n -= take
	}
	return dst
}
