package main

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gpuddt/internal/core"
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/gpu"
	"gpuddt/internal/ib"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/pcie"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// Micro-drivers: each times one public call of one layer in isolation,
// at a fixed iteration count, so that a layer-local optimisation shows
// as a layer number before anyone asks whether it moved wall_ms.

// medianOf runs sample batches times and returns the median.
func medianOf(batches int, sample func() float64) float64 {
	xs := make([]float64, batches)
	for i := range xs {
		xs[i] = sample()
	}
	return median(xs)
}

// hostNs times fn once.
func hostNs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0))
}

// inSim runs body as the only process of a fresh engine.
func inSim(e *sim.Engine, body func(p *sim.Proc)) {
	e.Spawn("micro", body)
	e.Run()
}

func mbps(bytes int64, ns float64) float64 { return float64(bytes) / ns * 1e3 }

// rig is one node with one GPU, a CUDA context and a datatype engine.
type rig struct {
	eng  *sim.Engine
	node *pcie.Node
	ctx  *cuda.Ctx
	core *core.Engine
}

func newRig() *rig {
	e := sim.NewEngine()
	node := pcie.NewNode(e, 0, 1, gpu.KeplerK40(), pcie.DefaultParams())
	ctx := cuda.NewCtx(node)
	return &rig{eng: e, node: node, ctx: ctx, core: core.New(ctx, 0, core.Options{})}
}

// llcBytes reads the last-level cache size the kernel reports, or 0.
func llcBytes() int64 {
	var llc int64
	for i := 0; i < 8; i++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			llc = max(llc, n*mult)
		}
	}
	return llc
}

// copyBufBytes sizes the arrays of the memmove roofline: four times the
// last-level cache, kept between 64 and 256 MiB (a virtual machine may
// report a socket-wide cache it owns a sliver of).
func copyBufBytes() int64 {
	return min(max(4*llcBytes(), 64<<20), 256<<20)
}

// microMetrics runs every micro-driver. It expects GOMAXPROCS=1 and
// restores it after the two drivers that measure a second P.
func microMetrics() map[string]float64 {
	m := make(map[string]float64)
	microSim(m)
	microMem(m)
	microDatatype(m)
	microCore(m)
	microSubstrate(m)
	return m
}

func microSim(m map[string]float64) {
	// Handoff: two processes bouncing a token through mailboxes; each
	// Put/Get pair parks one goroutine and resumes the other.
	const bounces = 10000
	handoff := func() float64 {
		e := sim.NewEngine()
		a, b := e.NewMailbox("a"), e.NewMailbox("b")
		e.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < bounces; i++ {
				b.Put(i)
				a.Get(p)
			}
		})
		e.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < bounces; i++ {
				b.Get(p)
				a.Put(i)
			}
		})
		return hostNs(e.Run) / (2 * bounces)
	}
	m["sim.handoff_ns"] = medianOf(3, handoff)
	runtime.GOMAXPROCS(runtime.NumCPU())
	m["sim.handoff_ns_mp"] = medianOf(3, handoff)
	runtime.GOMAXPROCS(1)

	// Event: a callback chain with no process behind it.
	const events = 200000
	var ms0, ms1 runtime.MemStats
	m["sim.event_ns"] = medianOf(3, func() float64 {
		e := sim.NewEngine()
		left := events
		var tick func()
		tick = func() {
			if left--; left > 0 {
				e.After(sim.Nanosecond, tick)
			}
		}
		e.After(0, tick)
		runtime.ReadMemStats(&ms0)
		ns := hostNs(e.Run)
		runtime.ReadMemStats(&ms1)
		return ns / events
	})
	m["sim.event_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / events

	const calls = 20000
	m["sim.sleep_ns"] = medianOf(3, func() float64 {
		e := sim.NewEngine()
		e.Spawn("sleeper", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		return hostNs(e.Run) / calls
	})
	m["sim.link_transfer_ns"] = medianOf(3, func() float64 {
		e := sim.NewEngine()
		l := e.NewLink("micro", 10, 100*sim.Nanosecond)
		e.Spawn("mover", func(p *sim.Proc) {
			for i := 0; i < calls; i++ {
				l.Transfer(p, 4096)
			}
		})
		return hostNs(e.Run) / calls
	})

	// Sharded engine: relay actors that re-post to themselves, so the
	// cost is the heap and the dispatch; then the same on two shards
	// with a second P, which is all a shard can gain.
	const actors, hops = 512, 400
	sharded := func(shards int) float64 {
		se := sim.NewShardedEngine(shards, sim.Microsecond)
		for i := 0; i < actors; i++ {
			id := se.AddActor(i%shards, &relay{left: hops})
			se.Post(sim.Time(i), sim.Event{To: id})
		}
		return hostNs(se.Run) / (actors * hops)
	}
	one := medianOf(3, func() float64 { return sharded(1) })
	m["sim.sharded.event_ns"] = one
	runtime.GOMAXPROCS(2)
	m["sim.sharded.speedup_2"] = one / medianOf(3, func() float64 { return sharded(2) })
	runtime.GOMAXPROCS(1)
}

// relay is a flyweight actor that forwards an event to itself.
type relay struct{ left int }

func (r *relay) HandleEvent(sc *sim.ShardCtx, ev sim.Event) {
	if r.left--; r.left > 0 {
		sc.Post(sim.Nanosecond, sim.Event{To: sc.Self()})
	}
}

func microMem(m map[string]float64) {
	// The memmove roofline, measured in the same process as the
	// profile that says how much of the program is memmove.
	n := copyBufBytes()
	src, dst := make([]byte, n), make([]byte, n)
	copy(dst, src) // fault both arrays in
	m["mem.copy_mbps"] = medianOf(3, func() float64 { return mbps(n, hostNs(func() { copy(dst, src) })) })
	m["mem.copy_buf_mb"] = float64(n) / (1 << 20)
	m["mem.llc_mb"] = float64(llcBytes()) / (1 << 20)

	fill := dst[:8<<20]
	m["mem.fill_synthetic_mbps"] = medianOf(3, func() float64 {
		return mbps(int64(len(fill)), hostNs(func() { mem.SyntheticAt(7, 0, fill) }))
	})

	var sig mpi.Sig64
	m["mpi.sig64_mbps"] = medianOf(3, func() float64 {
		return mbps(int64(len(fill)), hostNs(func() { sig.Write(fill) }))
	})
}

func microDatatype(m map[string]float64) {
	for _, c := range []struct {
		name string
		dt   *datatype.Datatype
	}{
		{"V", shapes.SubMatrix(1024, 1024, 1536)},
		{"T", shapes.LowerTriangular(1024)},
	} {
		conv := datatype.NewConverter(c.dt, 1)
		scattered := make([]byte, layoutSpan(c.dt, 1))
		packed := make([]byte, conv.Total())
		m["datatype.pack_mbps_"+c.name] = medianOf(5, func() float64 {
			conv.Rewind()
			return mbps(conv.Total(), hostNs(func() { conv.Pack(packed, scattered) }))
		})
		m["datatype.unpack_mbps_"+c.name] = medianOf(5, func() float64 {
			conv.Rewind()
			return mbps(conv.Total(), hostNs(func() { conv.Unpack(scattered, packed) }))
		})
	}

	const n = 1024
	m["datatype.commit_us_T"] = medianOf(5, func() float64 {
		return hostNs(func() { datatype.NewConverter(shapes.LowerTriangular(n), 1) }) / 1e3
	})

	conv := datatype.NewConverter(shapes.LowerTriangular(n), 1)
	rng := rand.New(rand.NewSource(42))
	pos := make([]int64, 1024)
	for i := range pos {
		pos[i] = rng.Int63n(conv.Total() + 1)
	}
	const seeks = 200000
	m["datatype.seek_ns"] = medianOf(3, func() float64 {
		return hostNs(func() {
			for i := 0; i < seeks; i++ {
				conv.SeekTo(pos[i%len(pos)])
			}
		}) / seeks
	})
}

func microCore(m map[string]float64) {
	dt := shapes.LowerTriangular(1024)
	// Cold: a fresh engine converts the datatype to CUDA-DEV units.
	m["core.pack_cold_us"] = medianOf(5, func() float64 {
		r := newRig()
		defer r.node.Release()
		data, dst := r.ctx.Malloc(0, layoutSpan(dt, 1)), r.ctx.Malloc(0, dt.Size())
		var ns float64
		inSim(r.eng, func(p *sim.Proc) { ns = hostNs(func() { r.core.Pack(p, data, dt, 1, dst) }) })
		return ns / 1e3
	})
	// Cached: the DEV cache serves the unit list.
	r := newRig()
	defer r.node.Release()
	data, packed := r.ctx.Malloc(0, layoutSpan(dt, 1)), r.ctx.Malloc(0, dt.Size())
	inSim(r.eng, func(p *sim.Proc) {
		r.core.Pack(p, data, dt, 1, packed)
		m["core.pack_cached_us"] = medianOf(15, func() float64 {
			return hostNs(func() { r.core.Pack(p, data, dt, 1, packed) }) / 1e3
		})
		r.core.Unpack(p, data, dt, 1, packed)
		m["core.unpack_cached_us"] = medianOf(15, func() float64 {
			return hostNs(func() { r.core.Unpack(p, data, dt, 1, packed) }) / 1e3
		})

		// One generic kernel of 1024 one-KiB units, strided source.
		const units, unit = 1024, 1024
		src, dst := r.ctx.Malloc(0, 2*units*unit), r.ctx.Malloc(0, units*unit)
		m["gpu.kernel_sim_ns"] = medianOf(15, func() float64 {
			k := &gpu.Kernel{Kind: gpu.DEVKernel, Src: src, Dst: dst, Units: gpu.GetUnits(units)}
			for i := range k.Units {
				k.Units[i] = gpu.Unit{SrcOff: int64(2 * i * unit), DstOff: int64(i * unit), Len: unit}
			}
			return hostNs(func() { r.core.Device().Launch(r.core.Stream(), k).Await(p) })
		})
	})
}

func microSubstrate(m map[string]float64) {
	r := newRig()
	defer r.node.Release()
	const rows, width, pitch = 4096, 1024, 2048
	dev := r.ctx.Malloc(0, rows*pitch)
	host := r.ctx.MallocHost(rows * width)
	big := r.ctx.Malloc(0, 8<<20)
	bigHost := r.ctx.MallocHost(8 << 20)
	small, small2 := r.ctx.MallocHost(4096), r.ctx.MallocHost(4096)
	const calls = 20000
	inSim(r.eng, func(p *sim.Proc) {
		m["cuda.memcpy2d_row_ns"] = medianOf(5, func() float64 {
			return hostNs(func() { must(r.ctx.Memcpy2D(p, host, width, dev, pitch, width, rows)) }) / rows
		})
		m["cuda.memcpy_mbps"] = medianOf(5, func() float64 {
			return mbps(big.Len(), hostNs(func() { must(r.ctx.Memcpy(p, bigHost, big)) }))
		})
		m["pcie.hostcopy_ns"] = medianOf(3, func() float64 {
			return hostNs(func() {
				for i := 0; i < calls; i++ {
					must(r.node.HostCopy(p, small, small2))
				}
			}) / calls
		})
	})

	e := sim.NewEngine()
	fabric := ib.NewFabric(e, ib.DefaultParams())
	var hcas [2]*ib.HCA
	var bufs [2]mem.Buffer
	for i := range hcas {
		node := pcie.NewNode(e, i, 1, gpu.KeplerK40(), pcie.DefaultParams())
		defer node.Release()
		hcas[i] = fabric.Attach(node)
		bufs[i] = cuda.NewCtx(node).MallocHost(4096)
	}
	inSim(e, func(p *sim.Proc) {
		must(hcas[0].Register(p, bufs[0]))
		must(hcas[1].Register(p, bufs[1]))
		m["ib.send_ns"] = medianOf(3, func() float64 {
			return hostNs(func() {
				for i := 0; i < calls; i++ {
					must(hcas[0].Send(p, hcas[1], 64, nil))
				}
			}) / calls
		})
		m["ib.rdma_write_ns"] = medianOf(3, func() float64 {
			return hostNs(func() {
				for i := 0; i < calls; i++ {
					must(hcas[0].Write(p, hcas[1], bufs[1], bufs[0]))
				}
			}) / calls
		})
	})
}

// must panics on an error that only a fault plan can produce; the
// micro-drivers install none.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
