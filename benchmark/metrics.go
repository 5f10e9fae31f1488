package main

// metricDef is one named metric of the benchmark. The tables below are the
// single source of names, units and bounds: BENCHMARK.json repeats them (a
// test keeps the two in step) and -compare reads the bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEndDefs are what a user of the system sees. Host-clock metrics carry
// bounds about three times the quartile spread ten runs showed on this
// sandbox (see README.md); the two virtual-time metrics repeat exactly for a
// given seed and their bound only has to cover how far the generated inputs
// differ from seed to seed.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"virt_ms_per_op", "ms", "lower", 0.05},
	{"ca_speedup_x", "x", "higher", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// perLayerDefs is the layer ledger. A traced run prints every one of them;
// a metric whose layer the workload does not exercise reads 0.
var perLayerDefs = []metricDef{
	{Name: "mesh.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.elems", Unit: "count", Better: "lower"},
	{Name: "partition.kway_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.rib_ms", Unit: "ms", Better: "lower"},
	{Name: "partition.edge_cut_frac", Unit: "ratio", Better: "lower"},
	{Name: "partition.imbalance_x", Unit: "x", Better: "lower"},
	{Name: "halo.ownership_ms", Unit: "ms", Better: "lower"},
	{Name: "halo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "halo.build_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "halo.exec_frac", Unit: "ratio", Better: "lower"},
	{Name: "ca.inspect_us", Unit: "us", Better: "lower"},
	{Name: "ca.max_he", Unit: "count", Better: "lower"},
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.new_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.warm_op_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cluster.chain_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "cluster.loop_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "cluster.seq_ratio_x", Unit: "x", Better: "lower"},
	{Name: "cluster.op2_op_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.uncached_ratio_x", Unit: "x", Better: "lower"},
	{Name: "cluster.pool_speedup_x", Unit: "x", Better: "higher"},
	{Name: "cluster.core_iters_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.halo_iters_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.redundant_frac", Unit: "ratio", Better: "lower"},
	{Name: "cluster.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cluster.msgs_per_miter", Unit: "count", Better: "lower"},
	{Name: "cluster.plan_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "netsim.deliver_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "netsim.deliver_ov_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "gpusim.virt_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "gpusim.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "obs.trace_overhead_x", Unit: "x", Better: "lower"},
	{Name: "obs.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "obs.crit_compute_frac", Unit: "ratio", Better: "higher"},
	{Name: "obs.crit_redundant_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.crit_pack_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.crit_wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.hidden_ms_per_op", Unit: "ms", Better: "higher"},
	{Name: "obs.imbalance_x", Unit: "x", Better: "lower"},
	{Name: "model.err_pct", Unit: "%", Better: "lower"},
	{Name: "autotune.decisions", Unit: "count", Better: "higher"},
	{Name: "autotune.replans", Unit: "count", Better: "lower"},
	{Name: "checkpoint.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "supervise.restarts_per_job", Unit: "count", Better: "lower"},
	{Name: "supervise.heal_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.direct_ratio_x", Unit: "x", Better: "lower"},
	{Name: "service.shed_frac", Unit: "ratio", Better: "lower"},
	{Name: "service.retained_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "bench.table5_s", Unit: "s", Better: "lower"},
	{Name: "bench.fig12_s", Unit: "s", Better: "lower"},
	{Name: "bench.table2_s", Unit: "s", Better: "lower"},
	{Name: "bench.fig13_s", Unit: "s", Better: "lower"},
	{Name: "bench.setup_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.seq_op_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "host.raw_op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a table of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

// set records a value; a name that is not in the table is a bug.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not defined")
}

// export renders every defined metric, 0 for those never set.
func (m *metricSet) export() map[string]metric {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metric{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
