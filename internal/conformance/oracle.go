package conformance

import (
	"bytes"
	"fmt"

	"gpuddt/internal/baseline"
	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/mem"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Tree is one generated conformance case: the spec, the datatype built
// through the engine's constructors, the repetition count, and the
// reference packed-byte -> memory-offset map computed by the naive
// walker.
type Tree struct {
	Seed  uint64
	Spec  Spec
	Dt    *datatype.Datatype
	Count int
	Map   []int64
	Span  int64
}

// NewTree derives a conformance case from seed: the tree from GenSpecOpts,
// the count from the seed's low bits.
func NewTree(seed uint64) *Tree {
	return NewTreeOpts(seed, DefaultTreeOptions())
}

// NewTreeOpts is NewTree under explicit bounds.
func NewTreeOpts(seed uint64, opt TreeOptions) *Tree {
	sp := GenSpecOpts(seed, opt)
	count := 1 + int(seed%3)
	return &Tree{
		Seed:  seed,
		Spec:  sp,
		Dt:    sp.Build(),
		Count: count,
		Map:   ReferenceMap(sp, count),
		Span:  Span(sp, count),
	}
}

// Total returns the packed byte count of the case.
func (tr *Tree) Total() int64 { return int64(len(tr.Map)) }

func (tr *Tree) errf(engine, format string, args ...interface{}) error {
	return fmt.Errorf("seed %d (%s x%d, %d packed bytes) [%s]: %s",
		tr.Seed, tr.Dt.Name(), tr.Count, tr.Total(), engine, fmt.Sprintf(format, args...))
}

// pattern fills a deterministic position-dependent byte pattern, seeded
// so distinct buffers differ.
func pattern(n int64, seed uint64) []byte {
	out := make([]byte, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x>>32) ^ byte(i)
	}
	return out
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// CheckStructure cross-checks the engine-built datatype's metadata
// against the spec's independent computation of the MPI rules.
func (tr *Tree) CheckStructure() error {
	sp, dt := tr.Spec, tr.Dt
	if dt.Size() != sp.Size() {
		return tr.errf("structure", "size: engine %d, reference %d", dt.Size(), sp.Size())
	}
	if dt.LB() != sp.LB() || dt.UB() != sp.UB() {
		return tr.errf("structure", "bounds: engine [%d,%d), reference [%d,%d)",
			dt.LB(), dt.UB(), sp.LB(), sp.UB())
	}
	var flatBytes int64
	for i := range dt.NumBlocks() {
		flatBytes += dt.Block(i).Len
	}
	if flatBytes != dt.Size() {
		return tr.errf("structure", "flattened blocks cover %d bytes, size is %d", flatBytes, dt.Size())
	}
	var sigBytes int64
	for _, r := range dt.Signature() {
		sigBytes += r.Count * prims[primIndex(r.Prim)].size
	}
	if sigBytes != dt.Size() {
		return tr.errf("structure", "signature covers %d bytes, size is %d", sigBytes, dt.Size())
	}
	if int64(len(tr.Map)) != int64(tr.Count)*dt.Size() {
		return tr.errf("structure", "reference map has %d entries, want %d", len(tr.Map), int64(tr.Count)*dt.Size())
	}
	return nil
}

func primIndex(p datatype.Primitive) int {
	for i, pr := range prims {
		if pr.dt.Signature()[0].Prim == p {
			return i
		}
	}
	panic(fmt.Sprintf("conformance: unknown primitive %v", p))
}

// CheckCPU runs the CPU converter — whole-message, fragmented, and
// seek-resumed — against the reference walker, in both directions.
func (tr *Tree) CheckCPU(fragSizes []int64) error {
	data := pattern(tr.Span, tr.Seed)
	want := ReferencePack(tr.Map, data)
	total := tr.Total()

	// Whole-message pack.
	c := datatype.NewConverter(tr.Dt, tr.Count)
	if c.Total() != total {
		return tr.errf("cpu", "converter total %d, reference %d", c.Total(), total)
	}
	got := make([]byte, total)
	c.Pack(got, data)
	if i := firstDiff(want, got); i >= 0 {
		return tr.errf("cpu", "whole pack differs at packed byte %d: got %#x want %#x", i, got[i], want[i])
	}

	// Fragment-at-a-time pack, twice over the same schedule: every
	// fragment through Pack, then every other one through Advance
	// instead — each emitted piece must be a run of the reference map,
	// and the run-copying Pack must carry on from wherever the piece
	// walk stopped, and the reverse.
	if len(fragSizes) > 0 && total > 0 {
		for _, mixed := range []bool{false, true} {
			what := "fragmented pack"
			if mixed {
				what = "mixed pack/advance"
			}
			c.Rewind()
			got2 := make([]byte, total)
			var pos int64
			for i := 0; !c.Done(); i++ {
				k := fragSizes[i%len(fragSizes)]
				if k < 1 {
					k = 1
				}
				if rem := total - pos; k > rem {
					k = rem
				}
				var n int64
				if !mixed || i%2 == 0 {
					n = c.Pack(got2[pos:pos+k], data)
				} else {
					var bad error
					n = c.Advance(k, func(memOff, packOff, l int64) {
						for j := int64(0); j < l && bad == nil; j++ {
							if tr.Map[packOff+j] != memOff+j {
								bad = tr.errf("cpu", "piece (mem %d, packed %d, len %d): packed byte %d lives at %d", memOff, packOff, l, packOff+j, tr.Map[packOff+j])
							}
						}
						copy(got2[packOff:packOff+l], data[memOff:memOff+l])
					})
					if bad != nil {
						return bad
					}
				}
				if n != k {
					return tr.errf("cpu", "%s consumed %d of %d at %d", what, n, k, pos)
				}
				pos += n
			}
			if i := firstDiff(want, got2); i >= 0 {
				return tr.errf("cpu", "%s differs at packed byte %d", what, i)
			}
		}

		// Seek-resumed pack of an interior window (MPI_Pack position).
		mid := total / 2
		c.SeekTo(mid)
		win := total - mid
		got3 := make([]byte, win)
		c.Pack(got3, data)
		if i := firstDiff(want[mid:], got3); i >= 0 {
			return tr.errf("cpu", "seek-resumed pack differs at packed byte %d", mid+int64(i))
		}
	}

	// Unpack identity (skipped for overlapping layouts, where scatter
	// order is undefined).
	if !HasOverlap(tr.Map) {
		base := pattern(tr.Span, tr.Seed+77)
		wantImg := append([]byte(nil), base...)
		ReferenceUnpack(tr.Map, wantImg, want)

		gotImg := append([]byte(nil), base...)
		u := datatype.NewConverter(tr.Dt, tr.Count)
		u.Unpack(gotImg, want)
		if i := firstDiff(wantImg, gotImg); i >= 0 {
			return tr.errf("cpu", "unpack differs at data byte %d", i)
		}
	}
	return nil
}

// CheckMVAPICH validates the baseline vectorizer: applying its segment
// list as cudaMemcpy2D would must reproduce the reference packed stream
// exactly, and the segments must tile the packed size.
func (tr *Tree) CheckMVAPICH() error {
	data := pattern(tr.Span, tr.Seed)
	want := ReferencePack(tr.Map, data)
	segs := baseline.Vectorize(tr.Dt, tr.Count)

	var covered int64
	for _, s := range segs {
		covered += s.PackedLen()
	}
	if covered != tr.Total() {
		return tr.errf("mvapich", "%d segments cover %d packed bytes, want %d", len(segs), covered, tr.Total())
	}

	got := make([]byte, 0, tr.Total())
	for si, s := range segs {
		if s.Len <= 0 || s.Count <= 0 {
			return tr.errf("mvapich", "segment %d degenerate: %+v", si, s)
		}
		for i := int64(0); i < s.Count; i++ {
			off := s.Off + i*s.Stride
			if off < 0 || off+s.Len > tr.Span {
				return tr.errf("mvapich", "segment %d row %d reads [%d,%d) outside span %d",
					si, i, off, off+s.Len, tr.Span)
			}
			got = append(got, data[off:off+s.Len]...)
		}
	}
	if i := firstDiff(want, got); i >= 0 {
		return tr.errf("mvapich", "segment pack differs at packed byte %d", i)
	}
	return nil
}

// GPUDriver selects how the contiguous side of a GPU pack/unpack is
// placed, covering the engine's three kernel launch paths.
type GPUDriver int

const (
	// DriverD2D keeps the packed stream in the same GPU's memory.
	DriverD2D GPUDriver = iota
	// DriverD2D2H packs into device memory, then copies the packed
	// stream to the host (and the reverse for unpack).
	DriverD2D2H
	// DriverZeroCopy packs straight into mapped host memory (and
	// unpacks straight out of it), the paper's zero-copy path.
	DriverZeroCopy
)

func (d GPUDriver) String() string {
	switch d {
	case DriverD2D:
		return "d2d"
	case DriverD2D2H:
		return "d2d2h"
	default:
		return "zerocopy"
	}
}

// gpuRig is a fresh one-GPU simulation for a GPU-engine check.
type gpuRig struct {
	eng *sim.Engine
	ctx *cuda.Ctx
	e   *core.Engine
}

func newGPURig(opts core.Options) *gpuRig {
	eng := sim.NewEngine()
	node := pcie.NewNode(eng, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	ctx := cuda.NewCtx(node)
	return &gpuRig{eng: eng, ctx: ctx, e: core.New(ctx, 0, opts)}
}

// CheckGPU runs the GPU DEV engine through one driver against the
// reference walker: fragmented pack, a second pack served from the
// cached DEV descriptor list, and a fragmented unpack (when the layout
// is overlap-free). All phases run sequentially inside one simulated
// process, since an engine's Run may only be called once.
func (tr *Tree) CheckGPU(driver GPUDriver, opts core.Options, fragSizes []int64) error {
	if len(fragSizes) == 0 {
		fragSizes = []int64{1 << 20}
	}
	r := newGPURig(opts)
	total := tr.Total()
	data := r.ctx.Malloc(0, tr.Span)
	copy(data.Bytes(), pattern(tr.Span, tr.Seed))
	want := ReferencePack(tr.Map, data.Bytes())

	newPacked := func() mem.Buffer {
		if driver == DriverZeroCopy {
			return r.ctx.MallocHost(total)
		}
		return r.ctx.Malloc(0, total)
	}
	engine := "gpu-" + driver.String()

	doUnpack := !HasOverlap(tr.Map) && total > 0
	base := pattern(tr.Span, tr.Seed+77)
	var wantImg []byte
	var layout mem.Buffer
	if doUnpack {
		wantImg = append([]byte(nil), base...)
		ReferenceUnpack(tr.Map, wantImg, want)
		layout = r.ctx.Malloc(0, tr.Span)
		copy(layout.Bytes(), base)
	}

	var checkErr error
	r.eng.Spawn("conformance", func(p *sim.Proc) {
		// Pack twice: the first pass converts on the CPU (and, with
		// caching enabled, stores the DEV descriptor list); the second
		// pass is served from the cache and windows the stored list.
		for pass, label := range []string{"first", "cached"} {
			dst := newPacked()
			host := dst
			if driver == DriverD2D2H {
				host = r.ctx.MallocHost(total)
			}
			var pk core.Packer
			r.e.InitPacker(&pk, data, tr.Dt, tr.Count)
			var pos int64
			for i := pass; pos < total; i++ {
				k := fragSizes[i%len(fragSizes)]
				if k < 1 {
					k = 1
				}
				if rem := total - pos; k > rem {
					k = rem
				}
				n, fut := pk.PackWith(p, dst.Slice(pos, k), nil)
				fut.Await(p)
				pos += n
			}
			if driver == DriverD2D2H {
				r.ctx.Memcpy(p, host, dst)
			}
			if i := firstDiff(want, host.Bytes()); i >= 0 {
				checkErr = tr.errf(engine, "%s pack differs at packed byte %d", label, i)
				return
			}
		}

		if !doUnpack {
			return
		}
		// Unpack: scatter the reference packed stream into a layout
		// buffer holding a different pattern; gaps must stay untouched.
		src := newPacked()
		if driver == DriverD2D2H {
			hostSrc := r.ctx.MallocHost(total)
			copy(hostSrc.Bytes(), want)
			r.ctx.Memcpy(p, src, hostSrc)
		} else {
			copy(src.Bytes(), want)
		}
		var pk core.Packer
		r.e.InitUnpacker(&pk, layout, tr.Dt, tr.Count)
		var pos int64
		for i := 0; pos < total; i++ {
			k := fragSizes[(i+1)%len(fragSizes)]
			if k < 1 {
				k = 1
			}
			if rem := total - pos; k > rem {
				k = rem
			}
			n, fut := pk.UnpackWith(p, src.Slice(pos, k), nil)
			fut.Await(p)
			pos += n
		}
	})
	r.eng.Run()
	if checkErr != nil {
		return checkErr
	}
	if doUnpack && !bytes.Equal(wantImg, layout.Bytes()) {
		i := firstDiff(wantImg, layout.Bytes())
		return tr.errf(engine, "unpack differs at data byte %d", i)
	}
	return nil
}

// CheckAll runs one tree through all four engines: the naive reference
// (implicitly, as the oracle), the CPU converter, the MVAPICH baseline
// vectorizer, and the GPU DEV engine under every driver.
func (tr *Tree) CheckAll(fragSizes []int64) error {
	if err := tr.CheckStructure(); err != nil {
		return err
	}
	if err := tr.CheckCPU(fragSizes); err != nil {
		return err
	}
	if err := tr.CheckMVAPICH(); err != nil {
		return err
	}
	for _, drv := range []GPUDriver{DriverD2D, DriverD2D2H, DriverZeroCopy} {
		if err := tr.CheckGPU(drv, core.Options{}, fragSizes); err != nil {
			return err
		}
	}
	// The generic-DEV ablation must agree with the vector fast path.
	return tr.CheckGPU(DriverD2D, core.Options{DisableVectorKernel: true}, fragSizes)
}
