package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root lists
// the same names, units, directions and bounds; TestContractMatchesCode
// keeps the two in step.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) error
}

// runSeconds is how long one run measures unless -seconds says otherwise.
const runSeconds = 12

var workloads = []workloadDef{
	{"monitor-240", "Paper scale, steady state: four services rotate on one live 240-switch deployment, so the hop loop does nearly all the work and install-side changes must not move it.", runMonitor},
	{"deploy-240", "Paper scale, control-plane bound: cold deploy of five services to their first answers, then a reconfiguration round; compile, verify and install do nearly all the work.", runDeployOF13},
	{"deploy-240-stateful", "The deploy-240 cycle under the stateful backend: the same compiler through its other lowering, state tables in place of tag rules and groups.", runDeployStateful},
	{"scale-10k", "10 000 switches: the deploy stages and the hop loop on a working set far beyond cache, where super-linear stages, GC and memory show.", runScale},
	{"burst-fattree-2shard", "64 concurrent sweeps on a fat-tree across 2 shards through the facade: the only load sharding can speed up, and the only one where lanes, windows and barriers run.", runBurst},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"deploy_to_collect_s", "s", "lower", 0.25},
	{"cycle_p50_ms", "ms", "lower", 0.25},
	{"hops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"rule_entries", "count", "lower", 0.10},
	{"inband_msgs", "count", "lower", 0.12},
}

var perLayer = []metricDef{
	{Name: "topo.build_ms", Unit: "ms", Better: "lower"},
	{Name: "smartsouth.deploy_ms", Unit: "ms", Better: "lower"},
	{Name: "network.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "verify.check_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.check_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "controller.install_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.install_calls", Unit: "count", Better: "lower"},
	{Name: "controller.install_msgs", Unit: "count", Better: "lower"},
	{Name: "controller.flow_mods", Unit: "count", Better: "lower"},
	{Name: "openflow.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "openflow.compile_dispatch_ms", Unit: "ms", Better: "lower"},
	{Name: "openflow.config_bytes", Unit: "B", Better: "lower"},
	{Name: "core.reset_counters_ms", Unit: "ms", Better: "lower"},
	{Name: "controller.uninstall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reinstall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.churn_ms", Unit: "ms", Better: "lower"},
	{Name: "core.trigger_us", Unit: "us", Better: "lower"},
	{Name: "core.collect_us", Unit: "us", Better: "lower"},
	{Name: "network.run_ms", Unit: "ms", Better: "lower"},
	{Name: "smartsouth.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "network.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "openflow.exec_ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "network.sched_ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "telemetry.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "metrics.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "trace.ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "telemetry.timeline_ns_per_hop", Unit: "ns", Better: "lower"},
	{Name: "openflow.lookups_per_hop", Unit: "ratio", Better: "lower"},
	{Name: "openflow.fallback_lookup_share", Unit: "ratio", Better: "lower"},
	{Name: "openflow.scanned_per_lookup", Unit: "ratio", Better: "lower"},
	{Name: "openflow.pool_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "network.events_per_hop", Unit: "ratio", Better: "lower"},
	{Name: "network.allocs_per_hop", Unit: "ratio", Better: "lower"},
	{Name: "network.heap_peak", Unit: "count", Better: "lower"},
	{Name: "network.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "network.hops_per_s_1shard", Unit: "1/s", Better: "higher"},
	{Name: "network.shard_windows", Unit: "count", Better: "lower"},
	{Name: "network.window_sim_ns_p50", Unit: "ns", Better: "higher"},
	{Name: "network.barrier_stall_share", Unit: "ratio", Better: "lower"},
	{Name: "network.cut_msgs_share", Unit: "ratio", Better: "lower"},
	{Name: "network.staged_depth_p50", Unit: "count", Better: "lower"},
	{Name: "network.shard_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "harness.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.alloc_mb_per_cycle", Unit: "MB", Better: "lower"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "harness.rule_entries", Unit: "count", Better: "lower"},
	{Name: "harness.inband_msgs", Unit: "count", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
