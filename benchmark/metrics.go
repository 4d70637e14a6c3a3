package main

// metricDef names one metric, its unit, and which way is better.
// BENCHMARK.json lists the same names and units; bench_test.go holds
// the two together.
type metricDef struct {
	name, unit, better string
}

// e2eDefs are the end-to-end metrics the pipeline bounds, reported for
// every workload. BENCHMARK.json fixes the bound of each.
//
// virtual_us and fail_frac are end-to-end too, but deterministic: the
// same on every run of a commit, so they carry no relative bound, and
// compare holds them to equality. The pipeline's contract wants metrics
// that are never zero and times that vary, so BENCHMARK.json carries
// virtual_us with the layer metrics and fail_frac as the attempted and
// failed counts of every result.
var e2eDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
}

// layerDefs are the per-layer metrics of the traced, profiled pass. A
// metric a workload does not exercise reads 0 there.
var layerDefs = []metricDef{
	{"virtual_us", "us", "lower"},

	// mpi, virtual time: what virtual_us is made of.
	{"mpi.virt.pack_us", "us", "lower"},
	{"mpi.virt.wire_us", "us", "lower"},
	{"mpi.virt.unpack_us", "us", "lower"},
	{"mpi.virt.idle_us", "us", "lower"},
	{"mpi.msgs", "count", "lower"},
	{"mpi.bytes", "B", "lower"},
	{"mpi.frags", "count", "lower"},
	{"mpi.eager_msgs", "count", "lower"},
	{"mpi.rndv_msgs", "count", "lower"},
	{"mpi.retries", "count", "lower"},
	{"mpi.coll.intra_us", "us", "lower"},
	{"mpi.coll.inter_us", "us", "lower"},
	{"mpi.overlap.hidden_frac", "ratio", "higher"},
	{"mpi.overlap.hidden_frac_n256", "ratio", "higher"},
	{"mpi.overlap.hidden_frac_n512", "ratio", "higher"},
	{"mpi.overlap.blocking_us", "us", "lower"},
	{"mpi.sig64_mbps", "MB/s", "higher"},

	{"core.dev.hit", "count", "higher"},
	{"core.dev.miss", "count", "lower"},
	{"core.dev.hit_ratio", "ratio", "higher"},
	{"core.pack_cold_us", "us", "lower"},
	{"core.pack_cached_us", "us", "lower"},
	{"core.unpack_cached_us", "us", "lower"},

	{"gpu.kernels", "count", "lower"},
	{"gpu.kernel_bytes", "B", "lower"},
	{"gpu.kernel_busy_us", "us", "lower"},
	{"gpu.compute_busy_us", "us", "lower"},
	{"gpu.kernel_sim_ns", "ns", "lower"},

	{"cuda.memcpy.count", "count", "lower"},
	{"cuda.memcpy.bytes", "B", "lower"},
	{"cuda.memcpy.busy_us", "us", "lower"},
	{"cuda.memcpy2d.count", "count", "lower"},
	{"cuda.memcpy2d.busy_us", "us", "lower"},
	{"cuda.ipc_opens", "count", "lower"},
	{"cuda.memcpy2d_row_ns", "ns", "lower"},
	{"cuda.memcpy_mbps", "MB/s", "higher"},

	{"pcie.bytes", "B", "lower"},
	{"pcie.busy_us", "us", "lower"},
	{"pcie.util_max", "ratio", "lower"},
	{"pcie.hostcopy_ns", "ns", "lower"},

	{"ib.sends", "count", "lower"},
	{"ib.rdma_ops", "count", "lower"},
	{"ib.rdma_bytes", "B", "lower"},
	{"ib.reg.hit", "count", "higher"},
	{"ib.reg.miss", "count", "lower"},
	{"ib.wire_bytes", "B", "lower"},
	{"ib.wire_busy_us", "us", "lower"},
	{"ib.util_max", "ratio", "lower"},
	{"ib.uplink_util_max", "ratio", "lower"},
	{"ib.send_ns", "ns", "lower"},
	{"ib.rdma_write_ns", "ns", "lower"},

	{"sim.handoff_ns", "ns", "lower"},
	{"sim.handoff_ns_mp", "ns", "lower"},
	{"sim.event_ns", "ns", "lower"},
	{"sim.event_allocs", "count", "lower"},
	{"sim.sleep_ns", "ns", "lower"},
	{"sim.link_transfer_ns", "ns", "lower"},
	{"sim.sharded.event_ns", "ns", "lower"},
	{"sim.sharded.speedup_2", "x", "higher"},

	{"mem.copy_mbps", "MB/s", "higher"},
	{"mem.copy_buf_mb", "MiB", "higher"},
	{"mem.llc_mb", "MiB", "higher"},
	{"mem.fill_synthetic_mbps", "MB/s", "higher"},

	{"datatype.pack_mbps_V", "MB/s", "higher"},
	{"datatype.pack_mbps_T", "MB/s", "higher"},
	{"datatype.unpack_mbps_V", "MB/s", "higher"},
	{"datatype.unpack_mbps_T", "MB/s", "higher"},
	{"datatype.seek_ns", "ns", "lower"},
	{"datatype.commit_us_T", "us", "lower"},

	{"model.events", "count", "lower"},
	{"model.msgs", "count", "lower"},
	{"model.sigchecks", "count", "lower"},
	{"model.heap_peak", "count", "lower"},
	{"model.state_bytes_per_rank", "B", "lower"},
	{"model.hier_events_per_s", "1/s", "higher"},
	{"model.flat_events_per_s", "1/s", "higher"},

	{"workload.halo_spans", "count", "lower"},
	{"baseline.mvapich_pingpong_ms", "ms", "lower"},

	// Host time, per workload: explains wall_ms.
	{"host.phase.build_ms", "ms", "lower"},
	{"host.phase.fill_ms", "ms", "lower"},
	{"host.phase.run_ms", "ms", "lower"},
	{"host.phase.verify_ms", "ms", "lower"},
	{"host.phase.close_ms", "ms", "lower"},
	{"host.share.sim", "ratio", "lower"},
	{"host.share.mem", "ratio", "lower"},
	{"host.share.datatype", "ratio", "lower"},
	{"host.share.core", "ratio", "lower"},
	{"host.share.gpu", "ratio", "lower"},
	{"host.share.cuda", "ratio", "lower"},
	{"host.share.pcie", "ratio", "lower"},
	{"host.share.ib", "ratio", "lower"},
	{"host.share.mpi", "ratio", "lower"},
	{"host.share.model", "ratio", "lower"},
	{"host.share.workload", "ratio", "lower"},
	{"host.share.baseline", "ratio", "lower"},
	{"host.share.bench", "ratio", "lower"},
	{"host.share.runtime_gc", "ratio", "lower"},
	{"host.share.runtime_sched", "ratio", "lower"},
	{"host.share.other", "ratio", "lower"},
	{"host.share.memmove_leaf", "ratio", "lower"},
	{"host.share.sim_engine", "ratio", "lower"},
	{"host.profile_samples", "count", "higher"},
	{"host.us_per_msg", "us", "lower"},
	{"host.wall_ms_med", "ms", "lower"},
	{"host.wall_ms_pct", "ms", "lower"},
	{"host.reps", "count", "higher"},
	{"host.peak_rss_mb", "MiB", "lower"},
	{"host.gc_cycles_per_op", "count", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"host.ref_ratio", "ratio", "lower"},
	{"host.trace_overhead_frac", "ratio", "lower"},

	// Fidelity to the paper, p2p_bw only: calibration work moves these.
	{"fidelity.pcie_frac_V", "ratio", "higher"}, // paper 0.90
	{"fidelity.pcie_frac_T", "ratio", "lower"},  // paper 0.78; the repo is above it
	{"fidelity.gap_1gpu_2gpu_x", "x", "lower"},  // paper >= 2; the repo is far above it
	{"fidelity.mvapich_gap_x", "x", "higher"},   // paper: ours always significantly faster
}

func isLayerMetric(name string) bool {
	for _, d := range layerDefs {
		if d.name == name {
			return true
		}
	}
	return false
}

// paperValues are printed beside the fidelity metrics.
var paperValues = map[string]string{
	"fidelity.pcie_frac_V":     "paper 0.90",
	"fidelity.pcie_frac_T":     "paper 0.78",
	"fidelity.gap_1gpu_2gpu_x": "paper >= 2",
	"fidelity.mvapich_gap_x":   "paper: T off the chart beyond N~4000",
}
