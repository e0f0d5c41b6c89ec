package telemetry

import (
	"fmt"
	"io"
)

// promHist writes one histogram in Prometheus text exposition format.
// Only non-empty buckets are emitted (cumulatively), plus the mandatory
// +Inf bucket, _sum and _count.
func promHist(w io.Writer, name, help string, s HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Upper, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count)
}

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// WriteProm writes the whole metrics set as Prometheus text exposition.
func (m *Metrics) WriteProm(w io.Writer) {
	fmt.Fprintf(w, "# HELP smartsouth_events_total simulator events processed, by kind\n")
	fmt.Fprintf(w, "# TYPE smartsouth_events_total counter\n")
	for k := 0; k < numKinds; k++ {
		fmt.Fprintf(w, "smartsouth_events_total{kind=%q} %d\n", KindNames[k], m.Events[k].Load())
	}
	promCounter(w, "smartsouth_runs_total", "completed simulator Run calls", m.Runs.Load())
	promCounter(w, "smartsouth_run_errors_total", "Run calls that returned an error", m.RunErrors.Load())
	promHist(w, "smartsouth_run_sim_ns", "per-Run span in simulation time (ns)", m.RunSimNs.Snapshot())
	promHist(w, "smartsouth_run_wall_ns", "per-Run span in wall-clock time (ns)", m.RunWallNs.Snapshot())
	promHist(w, "smartsouth_event_heap_depth", "event-heap depth observed at every pop", m.HeapDepth.Snapshot())
	promGauge(w, "smartsouth_event_heap_peak", "peak event-heap depth", float64(m.HeapPeak.Load()))
	promHist(w, "smartsouth_event_queue_wait_ns", "sim-time an event sat in the heap (ns)", m.QueueWait.Snapshot())
	promHist(w, "smartsouth_hop_latency_wall_ns", "wall-clock per processed event (ns), sampled 1 in 64", m.HopWallNs.Snapshot())

	promCounter(w, "smartsouth_hops_total", "link transmission attempts", m.Hops.Load())
	promCounter(w, "smartsouth_hops_dropped_total", "transmission attempts swallowed by the link", m.HopsDropped.Load())
	promCounter(w, "smartsouth_packet_ins_total", "packets delivered to the controller attachment", m.PacketIns.Load())
	promCounter(w, "smartsouth_self_delivered_total", "packets delivered to switch-local hosts", m.SelfDeliver.Load())

	promCounter(w, "smartsouth_pool_gets_total", "packet freelist Get calls", m.PoolGets.Load())
	promCounter(w, "smartsouth_pool_misses_total", "packet freelist Gets that allocated", m.PoolMisses.Load())
	promGauge(w, "smartsouth_pool_hit_rate", "packet freelist hit rate (1 = every clone recycled)", m.PoolHitRate())

	promCounter(w, "smartsouth_flowtable_lookups_total", "FlowTable lookups", m.FlowLookups.Load())
	promCounter(w, "smartsouth_flowtable_matcher_lookups_total", "lookups served by a compiled matcher already in place", m.MatcherLookups.Load())
	promCounter(w, "smartsouth_flowtable_fallback_lookups_total", "flow-table lookups that had to compile the matcher first, plus state-table lookups", m.FallbackLookups.Load())
	promCounter(w, "smartsouth_flowtable_entries_scanned_total", "flow entries probed across all lookups", m.FlowScanned.Load())
	promCounter(w, "smartsouth_state_commits_total", "committed state-table writes (stateful-backend EFSM transitions)", m.StateCommits.Load())
	if lk := m.FlowLookups.Load(); lk > 0 {
		promGauge(w, "smartsouth_flowtable_fanout", "mean entries probed per lookup (dispatch-index fan-out)",
			float64(m.FlowScanned.Load())/float64(lk))
	}

	promCounter(w, "smartsouth_sweep_runs_total", "parallel Sweep invocations", m.SweepRuns.Load())
	promCounter(w, "smartsouth_sweep_jobs_total", "sweep jobs completed", m.SweepJobs.Load())
	promCounter(w, "smartsouth_sweep_busy_ns_total", "summed per-job wall time (ns)", m.SweepBusyNs.Load())
	promCounter(w, "smartsouth_sweep_wall_ns_total", "summed Sweep wall time (ns)", m.SweepWallNs.Load())
	workers := m.SweepWorkers.Load()
	promGauge(w, "smartsouth_sweep_workers", "workers of the last Sweep", float64(workers))
	if workers > 0 {
		fmt.Fprintf(w, "# HELP smartsouth_sweep_worker_busy_ns per-worker busy time of the last Sweep (ns)\n")
		fmt.Fprintf(w, "# TYPE smartsouth_sweep_worker_busy_ns gauge\n")
		for i := int64(0); i < workers && i < maxSweepWorkers; i++ {
			fmt.Fprintf(w, "smartsouth_sweep_worker_busy_ns{worker=\"%d\"} %d\n", i, m.WorkerBusyNs[i].Load())
		}
		fmt.Fprintf(w, "# HELP smartsouth_sweep_worker_jobs per-worker job count of the last Sweep\n")
		fmt.Fprintf(w, "# TYPE smartsouth_sweep_worker_jobs gauge\n")
		for i := int64(0); i < workers && i < maxSweepWorkers; i++ {
			fmt.Fprintf(w, "smartsouth_sweep_worker_jobs{worker=\"%d\"} %d\n", i, m.WorkerJobs[i].Load())
		}
	}

	promCounter(w, "smartsouth_monitor_rounds_total", "monitoring rounds", m.MonitorRounds.Load())
	promCounter(w, "smartsouth_monitor_watchdog_rounds_total", "blackhole watchdog rounds", m.MonitorWatchdog.Load())
	promCounter(w, "smartsouth_monitor_events_total", "topology/blackhole events emitted", m.MonitorEvents.Load())
	promCounter(w, "smartsouth_monitor_blackholes_total", "blackhole-found events", m.MonitorBlackholes.Load())

	promCounter(w, "smartsouth_flight_records_total", "flight-recorder records written", m.FlightRecords.Load())
	promCounter(w, "smartsouth_flight_dumps_total", "flight-recorder post-mortem dumps", m.FlightDumps.Load())

	promCounter(w, "smartsouth_span_records_total", "causal-tracer execution spans recorded", m.SpanRecords.Load())

	promGauge(w, "smartsouth_shards", "worker-lane count of the most recently built network", float64(m.Shards.Load()))
	promCounter(w, "smartsouth_shard_windows_total", "conservative windows opened by the sharded coordinator", m.ShardWindows.Load())
	promHist(w, "smartsouth_shard_window_sim_ns", "window width in simulation time (ns)", m.WindowSimNs.Snapshot())
	promHist(w, "smartsouth_shard_barrier_stall_ns", "per-active-lane wall time idle at the window barrier (ns)", m.BarrierStallNs.Snapshot())
	promHist(w, "smartsouth_shard_staged_depth", "staged cross-lane deliveries per destination at a barrier merge", m.StagedDepth.Snapshot())
	promCounter(w, "smartsouth_shard_cut_msgs_total", "deliveries buffered across a shard boundary", m.CutMsgs.Load())
	promCounter(w, "smartsouth_shard_busy_ns_total", "summed per-lane window busy wall time (ns)", m.ShardBusyNs.Load())
	promCounter(w, "smartsouth_shard_busy_max_ns_total", "summed per-window max lane busy wall time (ns)", m.ShardBusyMaxNs.Load())
	promCounter(w, "smartsouth_shard_lane_windows_total", "lane-window executions (active lanes summed per window)", m.LaneWindows.Load())
	if imb := m.ShardImbalance(); imb > 0 {
		promGauge(w, "smartsouth_shard_load_imbalance", "mean max/mean lane busy time per window (1.0 = balanced)", imb)
	}
}

// HistView is the quantile-annotated JSON view of a histogram.
type HistView struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`

	Buckets []BucketCount `json:"buckets,omitempty"`
}

// View renders a snapshot with its standard quantiles.
func (s HistSnapshot) View() HistView {
	return HistView{
		Count: s.Count, Sum: s.Sum, Mean: s.Mean(),
		P50: s.Quantile(0.50), P90: s.Quantile(0.90), P99: s.Quantile(0.99),
		Max: s.Max, Buckets: s.Buckets,
	}
}

// Snapshot is the JSON view of the whole metrics set — the payload of
// the extended telemetry dump.
type Snapshot struct {
	Events map[string]int64 `json:"events"`
	Runs   int64            `json:"runs"`
	Errors int64            `json:"runErrors"`

	RunSimNs  HistView `json:"runSimNs"`
	RunWallNs HistView `json:"runWallNs"`
	HeapDepth HistView `json:"heapDepth"`
	HeapPeak  int64    `json:"heapPeak"`
	QueueWait HistView `json:"queueWaitNs"`
	HopWallNs HistView `json:"hopWallNs"`

	Hops        int64 `json:"hops"`
	HopsDropped int64 `json:"hopsDropped"`
	PacketIns   int64 `json:"packetIns"`
	SelfDeliver int64 `json:"selfDelivered"`

	PoolGets    int64   `json:"poolGets"`
	PoolMisses  int64   `json:"poolMisses"`
	PoolHitRate float64 `json:"poolHitRate"`

	FlowLookups     int64   `json:"flowLookups"`
	MatcherLookups  int64   `json:"matcherLookups"`
	FallbackLookups int64   `json:"fallbackLookups"`
	FlowScanned     int64   `json:"flowScanned"`
	FlowFanout      float64 `json:"flowFanout"`
	StateCommits    int64   `json:"stateCommits"`

	SweepRuns    int64   `json:"sweepRuns"`
	SweepJobs    int64   `json:"sweepJobs"`
	SweepBusyNs  int64   `json:"sweepBusyNs"`
	SweepWallNs  int64   `json:"sweepWallNs"`
	SweepWorkers []int64 `json:"sweepWorkerBusyNs,omitempty"`

	MonitorRounds     int64 `json:"monitorRounds"`
	MonitorWatchdog   int64 `json:"monitorWatchdogRounds"`
	MonitorEvents     int64 `json:"monitorEvents"`
	MonitorBlackholes int64 `json:"monitorBlackholes"`

	FlightRecords int64 `json:"flightRecords"`
	FlightDumps   int64 `json:"flightDumps"`

	SpanRecords int64 `json:"spanRecords"`

	Shards         int64    `json:"shards"`
	ShardWindows   int64    `json:"shardWindows"`
	WindowSimNs    HistView `json:"shardWindowSimNs"`
	BarrierStallNs HistView `json:"shardBarrierStallNs"`
	StagedDepth    HistView `json:"shardStagedDepth"`
	CutMsgs        int64    `json:"shardCutMsgs"`
	ShardBusyNs    int64    `json:"shardBusyNs"`
	ShardBusyMaxNs int64    `json:"shardBusyMaxNs"`
	LaneWindows    int64    `json:"shardLaneWindows"`
	ShardImbalance float64  `json:"shardLoadImbalance"`
}

// Snap copies the current values into a Snapshot.
func (m *Metrics) Snap() Snapshot {
	s := Snapshot{
		Events: make(map[string]int64, numKinds),
		Runs:   m.Runs.Load(), Errors: m.RunErrors.Load(),
		RunSimNs: m.RunSimNs.Snapshot().View(), RunWallNs: m.RunWallNs.Snapshot().View(),
		HeapDepth: m.HeapDepth.Snapshot().View(), HeapPeak: m.HeapPeak.Load(),
		QueueWait: m.QueueWait.Snapshot().View(), HopWallNs: m.HopWallNs.Snapshot().View(),
		Hops: m.Hops.Load(), HopsDropped: m.HopsDropped.Load(),
		PacketIns: m.PacketIns.Load(), SelfDeliver: m.SelfDeliver.Load(),
		PoolGets: m.PoolGets.Load(), PoolMisses: m.PoolMisses.Load(), PoolHitRate: m.PoolHitRate(),
		FlowLookups: m.FlowLookups.Load(), FlowScanned: m.FlowScanned.Load(),
		MatcherLookups: m.MatcherLookups.Load(), FallbackLookups: m.FallbackLookups.Load(),
		StateCommits: m.StateCommits.Load(),
		SweepRuns:    m.SweepRuns.Load(), SweepJobs: m.SweepJobs.Load(),
		SweepBusyNs: m.SweepBusyNs.Load(), SweepWallNs: m.SweepWallNs.Load(),
		MonitorRounds: m.MonitorRounds.Load(), MonitorWatchdog: m.MonitorWatchdog.Load(),
		MonitorEvents: m.MonitorEvents.Load(), MonitorBlackholes: m.MonitorBlackholes.Load(),
		FlightRecords: m.FlightRecords.Load(), FlightDumps: m.FlightDumps.Load(),
		SpanRecords: m.SpanRecords.Load(),
		Shards:      m.Shards.Load(), ShardWindows: m.ShardWindows.Load(),
		WindowSimNs:    m.WindowSimNs.Snapshot().View(),
		BarrierStallNs: m.BarrierStallNs.Snapshot().View(),
		StagedDepth:    m.StagedDepth.Snapshot().View(),
		CutMsgs:        m.CutMsgs.Load(),
		ShardBusyNs:    m.ShardBusyNs.Load(), ShardBusyMaxNs: m.ShardBusyMaxNs.Load(),
		LaneWindows: m.LaneWindows.Load(), ShardImbalance: m.ShardImbalance(),
	}
	for k := 0; k < numKinds; k++ {
		s.Events[KindNames[k]] = m.Events[k].Load()
	}
	if s.FlowLookups > 0 {
		s.FlowFanout = float64(s.FlowScanned) / float64(s.FlowLookups)
	}
	for i := int64(0); i < m.SweepWorkers.Load() && i < maxSweepWorkers; i++ {
		s.SweepWorkers = append(s.SweepWorkers, m.WorkerBusyNs[i].Load())
	}
	return s
}
