// Package mpiio is an MPI-IO-style parallel file layer, exercising the
// third consumer of committed datatypes the MPI standard (and the
// paper's §1) lists: "point-to-point, collective, I/O and one-sided
// functions".
//
// A File is a simulated shared file (real bytes) behind a
// bandwidth-limited storage link. Each rank sets a *view* — an etype
// count plus a filetype whose gaps skip other ranks' data, typically a
// Darray — and collective WriteAll moves the rank's local data
// (host or GPU, any datatype) through the view: GPU data is packed by
// the datatype engine, staged to the host, and scattered into the file
// holes, exactly the ROMIO data-sieving picture.
package mpiio

import (
	"fmt"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/mpi"
	"gpuddt/internal/sim"
)

// Params calibrates the storage system.
type Params struct {
	// BandwidthGBps is the aggregate file-system bandwidth (default 3).
	BandwidthGBps float64
	// OpLatency is the per-operation latency (default 100 us).
	OpLatency sim.Time

	// Link, when set, is the storage link the file shares instead of
	// creating its own: co-scheduled jobs that checkpoint through the
	// same link contend for the aggregate file-system bandwidth (the
	// multi-job interference scenario); BandwidthGBps and OpLatency are
	// then ignored.
	Link *sim.Link

	// Barrier, when set, replaces the world-wide barrier that closes
	// each collective WriteAll epoch. A job running on a subset
	// of the world's ranks (an mpi.Group) must scope completion to its
	// own members — a world barrier would deadlock against ranks that
	// never enter the I/O call.
	Barrier func(m *mpi.Rank)
}

// File is a shared simulated file.
type File struct {
	data    mem.Buffer
	size    int64
	link    *sim.Link
	views   []view // per rank
	barrier func(m *mpi.Rank)
}

type view struct {
	disp     int64
	filetype *datatype.Datatype
}

// Open creates (or truncates) a shared file of the given size.
// Collective: call once per job, then share the handle; each rank must
// SetView before writing.
func Open(w *mpi.World, name string, size int64, p Params) *File {
	if p.BandwidthGBps == 0 {
		p.BandwidthGBps = 3
	}
	if p.OpLatency == 0 {
		p.OpLatency = 100 * sim.Microsecond
	}
	link := p.Link
	if link == nil {
		link = w.Engine().NewLink("fs:"+name, p.BandwidthGBps, p.OpLatency)
	}
	barrier := p.Barrier
	if barrier == nil {
		barrier = func(m *mpi.Rank) { m.Barrier() }
	}
	return &File{
		data:    mem.NewSpace("file:"+name, mem.Host, size).Alloc(size, 1),
		size:    size,
		link:    link,
		views:   make([]view, w.Size()),
		barrier: barrier,
	}
}

// Bytes exposes the file contents for verification.
func (f *File) Bytes() []byte { return f.data.Bytes() }

// SetView installs rank m's file view: the packed stream of every
// subsequent WriteAll call lands in the data bytes of filetype
// tiled from byte displacement disp (MPI_File_set_view).
func (f *File) SetView(m *mpi.Rank, disp int64, filetype *datatype.Datatype) {
	if filetype.Size() == 0 {
		panic("mpiio: empty filetype")
	}
	f.views[m.Rank()] = view{disp: disp, filetype: filetype}
}

// WriteAll writes count elements of dt from buf through the caller's
// view (MPI_File_write_all). Collective: internally barriers so every
// rank's I/O lands in the same epoch.
func (f *File) WriteAll(m *mpi.Rank, buf mem.Buffer, dt *datatype.Datatype, count int) {
	v := f.views[m.Rank()]
	if v.filetype == nil {
		panic(fmt.Sprintf("mpiio: rank %d has no view", m.Rank()))
	}
	packed := int64(count) * dt.Size()
	// The view must have room for the packed stream (tile the filetype).
	tiles := (packed + v.filetype.Size() - 1) / v.filetype.Size()
	span := v.disp + v.filetype.Span(int(tiles))
	if span > f.size {
		panic(fmt.Sprintf("mpiio: rank %d view needs %d bytes, file has %d", m.Rank(), span, f.size))
	}

	// Stage the packed stream in host memory through the datatype
	// engine: a zero-copy pack for GPU data, the CPU for host data.
	stage := m.ScratchHost(packed)
	defer m.FreeScratchHost(stage)
	window := stage.Slice(0, packed)
	m.EngineFor(buf).Pack(m.Proc(), buf, dt, count, window)

	// Scatter the packed bytes into the file holes described by the
	// view, charging the storage link once for the whole stream.
	f.link.Transfer(m.Proc(), packed)
	fc := datatype.NewConverter(v.filetype, int(tiles))
	fc.Unpack(f.data.Slice(v.disp, f.size-v.disp).Bytes(), window.Bytes())
	f.barrier(m) // collective completion (job-scoped when Params.Barrier is set)
}
