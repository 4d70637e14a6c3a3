package baseline

import (
	"gpuddt/internal/cuda"
	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// The three naive approaches of Fig. 1 for getting non-contiguous GPU
// data into a contiguous host buffer. Each moves real bytes and charges
// the corresponding virtual time, so they can be benchmarked against the
// GPU datatype engine (solution d).

// SolutionA copies the whole data region — gaps included — from device
// to host with a single cudaMemcpy, then packs on the CPU (Fig. 1a).
// It needs a host scratch region as large as the layout's true extent.
func SolutionA(p *sim.Proc, ctx *cuda.Ctx, buf mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer, scratch mem.Buffer) {
	span := dt.Span(count)
	ctx.Memcpy(p, scratch.Slice(0, span), buf.Slice(0, span))
	c := datatype.NewConverter(dt, count)
	ctx.Node().HostBus().Transfer(p, 2*c.Total())
	c.Pack(dst.Bytes(), scratch.Bytes())
}

// SolutionB issues one device-to-host cudaMemcpy per contiguous block,
// packing directly into the host buffer (Fig. 1b). The per-call overhead
// and tiny transfers make it collapse for fine-grained layouts.
func SolutionB(p *sim.Proc, ctx *cuda.Ctx, buf mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer) {
	c := datatype.NewConverter(dt, count)
	c.Advance(c.Total(), func(memOff, packOff, n int64) {
		ctx.Memcpy(p, dst.Slice(packOff, n), buf.Slice(memOff, n))
	})
}

// SolutionC issues one device-to-device cudaMemcpy per contiguous block
// into a contiguous device buffer (Fig. 1c); it requires identical
// layouts on both peers and still pays per-call overhead.
func SolutionC(p *sim.Proc, ctx *cuda.Ctx, buf mem.Buffer, dt *datatype.Datatype, count int, dst mem.Buffer) {
	c := datatype.NewConverter(dt, count)
	c.Advance(c.Total(), func(memOff, packOff, n int64) {
		ctx.Memcpy(p, dst.Slice(packOff, n), buf.Slice(memOff, n))
	})
}
