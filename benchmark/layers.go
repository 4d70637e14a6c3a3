package main

import (
	"regexp"
	"strings"

	"gpuddt/internal/sim"
	"gpuddt/internal/trace"
)

// layerTrace aggregates the recorders of one traced repetition into the
// virtual-time layer metrics. Everything here is exact: the simulator
// is deterministic and recording never changes virtual time.
type layerTrace struct {
	sum map[string]float64 // additive metrics, summed over the repetition's worlds
	max map[string]float64 // utilisation maxima over worlds and links

	overlap   map[int]trace.Overlap // overlap_icoll: attribution of the overlapped arm, by n
	fidelity  map[string]float64    // p2p_bw: ratios the paper's figures state
	haloSpans int                   // app_stencil: "app.halo.face" spans
}

func newLayerTrace() *layerTrace {
	return &layerTrace{
		sum:     make(map[string]float64),
		max:     make(map[string]float64),
		overlap: make(map[int]trace.Overlap),
	}
}

var (
	pcieLink   = regexp.MustCompile(`^node\d+\.(gpu\d+\.(tx|rx)|root(Tx|Rx))$`)
	ibPortLink = regexp.MustCompile(`^ib\d+\.(tx|rx)$`)
	ibUplink   = regexp.MustCompile(`^leaf\d+\.(up|down)\d+$`)
)

// add folds one finished world's timeline in.
func (lt *layerTrace) add(rec *sim.Recorder) {
	s := lt.sum

	// Per-message phase attribution (pack / wire / unpack / idle).
	for _, tr := range trace.Transfers(rec) {
		s["mpi.msgs"]++
		s["mpi.bytes"] += float64(tr.Bytes)
		if tr.Label == "eager" {
			s["mpi.eager_msgs"]++
		} else {
			s["mpi.rndv_msgs"]++
		}
		s["mpi.virt.pack_us"] += tr.Pack.Micros()
		s["mpi.virt.wire_us"] += tr.Wire.Micros()
		s["mpi.virt.unpack_us"] += tr.Unpack.Micros()
		s["mpi.virt.idle_us"] += tr.Idle.Micros()
	}

	// Span totals by name.
	for _, ph := range trace.Phases(rec) {
		n, us, by := float64(ph.Count), ph.Total.Micros(), float64(ph.Bytes)
		switch {
		case strings.HasPrefix(ph.Name, "coll.") && strings.HasSuffix(ph.Name, ".intra"):
			s["mpi.coll.intra_us"] += us
		case strings.HasPrefix(ph.Name, "coll.") && strings.HasSuffix(ph.Name, ".inter"):
			s["mpi.coll.inter_us"] += us
		case ph.Name == "kernel.compute":
			s["gpu.compute_busy_us"] += us
		case strings.HasPrefix(ph.Name, "kernel."):
			s["gpu.kernels"] += n
			s["gpu.kernel_bytes"] += by
			s["gpu.kernel_busy_us"] += us
		case strings.HasPrefix(ph.Name, "cuda.memcpy2d."):
			s["cuda.memcpy2d.count"] += n
			s["cuda.memcpy2d.busy_us"] += us
		case strings.HasPrefix(ph.Name, "cuda.memcpy."):
			s["cuda.memcpy.count"] += n
			s["cuda.memcpy.bytes"] += by
			s["cuda.memcpy.busy_us"] += us
		case ph.Name == "ipc.open":
			s["cuda.ipc_opens"] += n
		case ph.Name == "ib.send":
			s["ib.sends"] += n
		case ph.Name == "rdma.write" || ph.Name == "rdma.read":
			s["ib.rdma_ops"] += n
			s["ib.rdma_bytes"] += by
		}
	}

	for counter, metric := range map[string]string{
		"mpi.frag":      "mpi.frags",
		"mpi.retry":     "mpi.retries",
		"core.dev.hit":  "core.dev.hit",
		"core.dev.miss": "core.dev.miss",
		"ib.reg.hit":    "ib.reg.hit",
		"ib.reg.miss":   "ib.reg.miss",
	} {
		s[metric] += float64(rec.Counter(counter))
	}

	// Link occupancy. A link's track carries exactly its "xfer" and
	// "hold" spans, whose bytes and durations are what Link.BytesMoved
	// and Link.BusyTime count; reading the tracks also covers worlds
	// built inside internal/workload, whose engine is out of reach.
	elapsed := float64(rec.Now())
	for _, tk := range rec.Tracks() {
		var bytesKey, busyKey, utilKey string
		switch {
		case pcieLink.MatchString(tk.Name):
			bytesKey, busyKey, utilKey = "pcie.bytes", "pcie.busy_us", "pcie.util_max"
		case ibPortLink.MatchString(tk.Name):
			bytesKey, busyKey, utilKey = "ib.wire_bytes", "ib.wire_busy_us", "ib.util_max"
		case ibUplink.MatchString(tk.Name):
			utilKey = "ib.uplink_util_max"
		default:
			continue
		}
		var busy sim.Time
		var moved int64
		for i := range tk.Spans {
			busy += tk.Spans[i].Duration()
			moved += tk.Spans[i].Bytes
		}
		if bytesKey != "" {
			s[bytesKey] += float64(moved)
			s[busyKey] += busy.Micros()
		}
		if elapsed > 0 {
			lt.max[utilKey] = max(lt.max[utilKey], float64(busy)/elapsed)
		}
	}
}

// metrics returns the virtual-time layer metrics of the repetition.
func (lt *layerTrace) metrics(r *run) map[string]float64 {
	m := make(map[string]float64)
	for k, v := range lt.sum {
		m[k] = v
	}
	for k, v := range lt.max {
		m[k] = v
	}
	if lookups := m["core.dev.hit"] + m["core.dev.miss"]; lookups > 0 {
		m["core.dev.hit_ratio"] = m["core.dev.hit"] / lookups
	}

	var all trace.Overlap
	for n, ov := range lt.overlap {
		all.Wire += ov.Wire
		all.Hidden += ov.Hidden
		switch n {
		case 256:
			m["mpi.overlap.hidden_frac_n256"] = ov.HiddenFrac()
		case 512:
			m["mpi.overlap.hidden_frac_n512"] = ov.HiddenFrac()
		}
	}
	m["mpi.overlap.hidden_frac"] = all.HiddenFrac()
	for name, us := range r.pointUs {
		if strings.HasSuffix(name, ".blocking") {
			m["mpi.overlap.blocking_us"] += us
		}
	}

	ms := r.model
	m["model.events"] = float64(ms.events)
	m["model.msgs"] = float64(ms.msgs)
	m["model.sigchecks"] = float64(ms.sigChecks)
	m["model.heap_peak"] = float64(ms.heapPeak)
	m["model.state_bytes_per_rank"] = float64(ms.stateBytesPerRank)
	m["workload.halo_spans"] = float64(lt.haloSpans)

	for k, v := range lt.fidelity {
		m[k] = v
	}
	m["virtual_us"] = r.virtualUs
	return m
}
