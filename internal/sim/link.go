package sim

// Link models a point-to-point transfer resource with finite bandwidth and
// fixed propagation latency: a PCIe direction, a DRAM port, an InfiniBand
// wire, a host memory bus.
//
// A transfer occupies the link for bytes/bandwidth (store-and-forward
// serialization: concurrent transfers queue FIFO), and the data arrives
// latency after the occupancy ends. The link is free for the next transfer
// during the propagation latency, which is what makes fragment pipelines
// effective, exactly as on real hardware.
type Link struct {
	e       *Engine
	id      uint64
	name    string
	bwGBps  float64
	latency Time
	busy    Resource

	// Overhead is a fixed per-transfer setup cost charged while holding
	// the link (e.g. DMA descriptor setup). Zero by default.
	Overhead Time

	bytesMoved int64
	busyTime   Time
}

// NewLink returns a link with the given bandwidth (GB/s) and latency.
func (e *Engine) NewLink(name string, bwGBps float64, latency Time) *Link {
	if bwGBps <= 0 {
		panic("sim: link bandwidth must be positive: " + name)
	}
	e.linkSeq++
	l := &Link{
		e:       e,
		id:      e.linkSeq,
		name:    name,
		bwGBps:  bwGBps,
		latency: latency,
		busy:    Resource{e: e, name: name, cap: 1},
	}
	e.links = append(e.links, l)
	return l
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Bandwidth returns the link bandwidth in GB/s.
func (l *Link) Bandwidth() float64 { return l.bwGBps }

// Latency returns the propagation latency.
func (l *Link) Latency() Time { return l.latency }

// OccupancyFor returns the serialization time for n bytes.
func (l *Link) OccupancyFor(n int64) Time {
	return l.Overhead + TimeForBytes(n, l.bwGBps)
}

// Transfer moves n bytes over the link and blocks the calling process
// until the data has arrived at the far end (occupancy + latency).
func (l *Link) Transfer(p *Proc, n int64) {
	l.occupy(p, n)
	p.Sleep(l.latency)
}

// Occupy holds the link for the serialization time of n bytes without the
// trailing propagation latency. Use it when the caller accounts for
// latency itself (e.g. a path of several links).
func (l *Link) Occupy(p *Proc, n int64) { l.occupy(p, n) }

func (l *Link) occupy(p *Proc, n int64) {
	if n < 0 {
		panic("sim: negative transfer size on " + l.name)
	}
	l.busy.Acquire(p)
	// Begin the span only once the link is held, so spans on a link
	// track never overlap (queueing time belongs to the caller's track).
	h := l.span("xfer", n)
	d := l.OccupancyFor(n)
	p.Sleep(d)
	l.bytesMoved += n
	l.busyTime += d
	h.End()
	l.busy.Release()
}

// HoldFor occupies the link exclusively for an explicit duration while
// accounting n bytes of traffic. Used when the effective occupancy is
// dictated by a coupled resource (e.g. a zero-copy kernel whose device
// side is slower than the wire).
func (l *Link) HoldFor(p *Proc, n int64, d Time) {
	l.busy.Acquire(p)
	h := l.span("hold", n)
	p.Sleep(d)
	l.bytesMoved += n
	l.busyTime += d
	h.End()
	l.busy.Release()
}

// span opens a recorder span on the link's own track (inert when
// tracing is off).
func (l *Link) span(name string, n int64) SpanHandle {
	if l.e.rec == nil {
		return SpanHandle{}
	}
	return l.e.rec.begin(l.e.rec.track(l, l.name), name, n)
}

// BytesMoved returns the total bytes transferred so far.
func (l *Link) BytesMoved() int64 { return l.bytesMoved }

// BusyTime returns the cumulative occupancy time.
func (l *Link) BusyTime() Time { return l.busyTime }

// Path is the set of links traversed by a single transfer (e.g.
// GPU0→switch→GPU1). Hardware forwards at packet granularity
// (cut-through), so a path transfer holds every hop simultaneously for
// the bottleneck hop's serialization time — back-pressure stalls the
// faster hops — and the data arrives after the sum of hop latencies.
// Neither depends on the order of the hops, so a path keeps them in lock
// order: link creation order, the global order in which every path
// locks its hops so overlapping paths cannot deadlock.
type Path struct {
	hops []*Link
}

// NewPath returns the path over hops, which it keeps and sorts in place
// into lock order.
func NewPath(hops ...*Link) *Path {
	for i := 1; i < len(hops); i++ {
		for j := i; j > 0 && hops[j].id < hops[j-1].id; j-- {
			hops[j], hops[j-1] = hops[j-1], hops[j]
		}
	}
	return &Path{hops: hops}
}

// Hops returns the path's links in lock order. The caller must not
// modify the slice.
func (pa *Path) Hops() []*Link { return pa.hops }

// Transfer moves n bytes along the path, blocking until arrival.
func (pa *Path) Transfer(p *Proc, n int64) {
	pa.Occupy(p, n)
	p.Sleep(pa.Latency())
}

// maxSpanHops is the most hops whose trace spans Occupy keeps on the
// stack: a cross-leaf fabric path has four.
const maxSpanHops = 4

// Occupy holds every hop for the bottleneck serialization time of n
// bytes, without the trailing propagation latency. Hops are locked in
// lock order.
func (pa *Path) Occupy(p *Proc, n int64) {
	if n < 0 {
		panic("sim: negative transfer size on the path over " + pa.hops[0].name)
	}
	var occ Time
	for _, l := range pa.hops {
		l.busy.Acquire(p)
		if o := l.OccupancyFor(n); o > occ {
			occ = o
		}
	}
	var hs []SpanHandle
	if p.e.rec != nil {
		var inline [maxSpanHops]SpanHandle
		if hs = inline[:]; len(pa.hops) > maxSpanHops {
			hs = make([]SpanHandle, len(pa.hops))
		}
		for i, l := range pa.hops {
			hs[i] = l.span("xfer", n)
		}
	}
	p.Sleep(occ)
	for i, l := range pa.hops {
		l.bytesMoved += n
		l.busyTime += occ
		if hs != nil {
			hs[i].End()
		}
		l.busy.Release()
	}
}

// Bandwidth returns the bottleneck bandwidth of the path in GB/s.
func (pa *Path) Bandwidth() float64 {
	bw := 0.0
	for i, l := range pa.hops {
		if i == 0 || l.bwGBps < bw {
			bw = l.bwGBps
		}
	}
	return bw
}

// Latency returns the end-to-end propagation latency of the path.
func (pa *Path) Latency() Time {
	var lat Time
	for _, l := range pa.hops {
		lat += l.latency
	}
	return lat
}
