package telemetry

import (
	"fmt"
	"io"
)

// promHist writes one histogram in Prometheus text exposition format.
// Only non-empty buckets are emitted (cumulatively), plus the mandatory
// +Inf bucket, _sum and _count.
func promHist(w io.Writer, name, help string, s HistView) {
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

// WriteProm writes a snapshot as Prometheus text exposition.
func WriteProm(w io.Writer, s *Snapshot) {
	fmt.Fprintf(w, "# HELP smartsouth_events_total simulator events processed, by kind\n")
	fmt.Fprintf(w, "# TYPE smartsouth_events_total counter\n")
	for _, k := range KindNames {
		fmt.Fprintf(w, "smartsouth_events_total{kind=%q} %d\n", k, s.Events[k])
	}
	promCounter(w, "smartsouth_runs_total", "completed simulator Run calls", s.Runs)
	promCounter(w, "smartsouth_run_errors_total", "Run calls that returned an error", s.Errors)
	promHist(w, "smartsouth_run_sim_ns", "per-Run span in simulation time (ns)", s.RunSimNs)
	promHist(w, "smartsouth_run_wall_ns", "per-Run span in wall-clock time (ns)", s.RunWallNs)
	promHist(w, "smartsouth_event_heap_depth", "event-heap depth observed at every pop", s.HeapDepth)
	promGauge(w, "smartsouth_event_heap_peak", "peak event-heap depth", float64(s.HeapPeak))
	promHist(w, "smartsouth_event_queue_wait_ns", "sim-time an event sat in the heap (ns)", s.QueueWait)
	promHist(w, "smartsouth_hop_latency_wall_ns", "wall-clock per processed event (ns), sampled 1 in 64", s.HopWallNs)

	promCounter(w, "smartsouth_hops_total", "link transmission attempts", s.Hops)
	promCounter(w, "smartsouth_hops_dropped_total", "transmission attempts swallowed by the link", s.HopsDropped)
	promCounter(w, "smartsouth_packet_ins_total", "packets delivered to the controller attachment", s.PacketIns)
	promCounter(w, "smartsouth_self_delivered_total", "packets delivered to switch-local hosts", s.SelfDeliver)

	promCounter(w, "smartsouth_pool_gets_total", "packet freelist Get calls", s.PoolGets)
	promCounter(w, "smartsouth_pool_misses_total", "packet freelist Gets that allocated (process-wide)", s.PoolMisses)
	promGauge(w, "smartsouth_pool_hit_rate", "packet freelist hit rate, process-wide (1 = every clone recycled)", s.PoolHitRate)

	promCounter(w, "smartsouth_flowtable_lookups_total", "FlowTable lookups", s.FlowLookups)
	promCounter(w, "smartsouth_flowtable_matcher_lookups_total", "lookups served by a compiled matcher already in place", s.MatcherLookups)
	promCounter(w, "smartsouth_flowtable_fallback_lookups_total", "flow-table lookups that had to compile the matcher first, plus state-table lookups", s.FallbackLookups)
	promCounter(w, "smartsouth_flowtable_entries_scanned_total", "flow entries probed across all lookups", s.FlowScanned)
	promCounter(w, "smartsouth_state_commits_total", "committed state-table writes (stateful-backend EFSM transitions)", s.StateCommits)
	if s.FlowLookups > 0 {
		promGauge(w, "smartsouth_flowtable_fanout", "mean entries probed per lookup (dispatch-index fan-out)", s.FlowFanout)
	}

	promCounter(w, "smartsouth_sweep_runs_total", "parallel Sweep invocations (process-wide)", s.SweepRuns)
	promCounter(w, "smartsouth_sweep_jobs_total", "sweep jobs completed", s.SweepJobs)
	promCounter(w, "smartsouth_sweep_busy_ns_total", "summed per-job wall time (ns)", s.SweepBusyNs)
	promCounter(w, "smartsouth_sweep_wall_ns_total", "summed Sweep wall time (ns)", s.SweepWallNs)
	promGauge(w, "smartsouth_sweep_workers", "workers of the last Sweep", float64(s.SweepWorkers))
	if len(s.SweepWorkerBusyNs) > 0 {
		fmt.Fprintf(w, "# HELP smartsouth_sweep_worker_busy_ns per-worker busy time of the last Sweep (ns)\n")
		fmt.Fprintf(w, "# TYPE smartsouth_sweep_worker_busy_ns gauge\n")
		for i, v := range s.SweepWorkerBusyNs {
			fmt.Fprintf(w, "smartsouth_sweep_worker_busy_ns{worker=\"%d\"} %d\n", i, v)
		}
		fmt.Fprintf(w, "# HELP smartsouth_sweep_worker_jobs per-worker job count of the last Sweep\n")
		fmt.Fprintf(w, "# TYPE smartsouth_sweep_worker_jobs gauge\n")
		for i, v := range s.SweepWorkerJobs {
			fmt.Fprintf(w, "smartsouth_sweep_worker_jobs{worker=\"%d\"} %d\n", i, v)
		}
	}

	promCounter(w, "smartsouth_monitor_rounds_total", "monitoring rounds", s.MonitorRounds)
	promCounter(w, "smartsouth_monitor_watchdog_rounds_total", "blackhole watchdog rounds", s.MonitorWatchdog)
	promCounter(w, "smartsouth_monitor_events_total", "topology/blackhole events emitted", s.MonitorEvents)
	promCounter(w, "smartsouth_monitor_blackholes_total", "blackhole-found events", s.MonitorBlackholes)

	promCounter(w, "smartsouth_flight_records_total", "flight-recorder records written", s.FlightRecords)
	promCounter(w, "smartsouth_flight_dumps_total", "flight-recorder post-mortem dumps", s.FlightDumps)

	promCounter(w, "smartsouth_span_records_total", "causal-tracer execution spans recorded", s.SpanRecords)

	promGauge(w, "smartsouth_shards", "worker-lane count of the network (process view: the most recently built one)", float64(s.Shards))
	promCounter(w, "smartsouth_shard_windows_total", "conservative windows opened by the sharded coordinator", s.ShardWindows)
	promHist(w, "smartsouth_shard_window_sim_ns", "window width in simulation time (ns)", s.WindowSimNs)
	promHist(w, "smartsouth_shard_barrier_stall_ns", "per-active-lane wall time idle at the window barrier (ns)", s.BarrierStallNs)
	promHist(w, "smartsouth_shard_staged_depth", "staged cross-lane deliveries per destination at a barrier merge", s.StagedDepth)
	promCounter(w, "smartsouth_shard_cut_msgs_total", "deliveries buffered across a shard boundary", s.CutMsgs)
	promCounter(w, "smartsouth_shard_busy_ns_total", "summed per-lane window busy wall time (ns)", s.ShardBusyNs)
	promCounter(w, "smartsouth_shard_busy_max_ns_total", "summed per-window max lane busy wall time (ns)", s.ShardBusyMaxNs)
	promCounter(w, "smartsouth_shard_lane_windows_total", "lane-window executions (active lanes summed per window)", s.LaneWindows)
	if s.ShardImbalance > 0 {
		promGauge(w, "smartsouth_shard_load_imbalance", "mean max/mean lane busy time per window (1.0 = balanced)", s.ShardImbalance)
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

// Snapshot is the JSON view of a counter set (a network's, or the
// process sum) — the payload of /telemetry and of the CLI's -telemetry
// dump, and what WriteProm renders.
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

	SweepRuns         int64   `json:"sweepRuns"`
	SweepJobs         int64   `json:"sweepJobs"`
	SweepBusyNs       int64   `json:"sweepBusyNs"`
	SweepWallNs       int64   `json:"sweepWallNs"`
	SweepWorkers      int64   `json:"-"`
	SweepWorkerBusyNs []int64 `json:"sweepWorkerBusyNs,omitempty"`
	SweepWorkerJobs   []int64 `json:"sweepWorkerJobs,omitempty"`

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

// Snap renders c as a Snapshot, with the process-wide series — pool
// misses (and the hit rate over every network's pool gets) and the sweep
// runner — filled in from the process tier.
func (c *Counters) Snap() Snapshot {
	s := c.view()
	s.addProcess()
	return s
}

// ProcessSnap is the process view: the sum of every network's folds plus
// the process-wide series. Shards is the worker-lane count of the most
// recently built network.
func ProcessSnap() Snapshot {
	process.mu.Lock()
	s := process.sum.view()
	process.mu.Unlock()
	s.addProcess()
	s.Shards = process.shards.Load()
	return s
}

// view copies c's own series into a Snapshot.
func (c *Counters) view() Snapshot {
	i := func(v uint64) int64 { return int64(v) }
	h := func(l *LocalHist) HistView { return l.Snapshot().View() }
	s := Snapshot{
		Events: make(map[string]int64, numKinds),
		Runs:   i(c.Runs), Errors: i(c.RunErrors),
		RunSimNs: h(&c.RunSimNs), RunWallNs: h(&c.RunWallNs),
		HeapDepth: h(&c.HeapDepth), HeapPeak: c.HeapPeak,
		QueueWait: h(&c.QueueWait), HopWallNs: h(&c.HopWallNs),
		Hops: i(c.Hops), HopsDropped: i(c.HopsDropped),
		PacketIns: i(c.PacketIns), SelfDeliver: i(c.SelfDeliver),
		PoolGets:    i(c.PoolGets),
		FlowLookups: i(c.MatcherLookups + c.FallbackLookups), FlowScanned: i(c.FlowScanned),
		MatcherLookups: i(c.MatcherLookups), FallbackLookups: i(c.FallbackLookups),
		StateCommits:  i(c.StateCommits),
		MonitorRounds: i(c.MonitorRounds), MonitorWatchdog: i(c.MonitorWatchdog),
		MonitorEvents: i(c.MonitorEvents), MonitorBlackholes: i(c.MonitorBlackholes),
		FlightRecords: i(c.FlightRecords), FlightDumps: i(c.FlightDumps),
		SpanRecords:  i(c.SpanRecords),
		ShardWindows: i(c.Windows),
		WindowSimNs:  h(&c.WindowSimNs), BarrierStallNs: h(&c.BarrierStallNs), StagedDepth: h(&c.StagedDepth),
		CutMsgs:     i(c.CutMsgs),
		ShardBusyNs: i(c.LaneBusyNs), ShardBusyMaxNs: i(c.LaneBusyMaxNs),
		LaneWindows: i(c.LaneWindows),
	}
	for k, name := range KindNames {
		s.Events[name] = i(c.Events[k])
	}
	if s.FlowLookups > 0 {
		s.FlowFanout = float64(s.FlowScanned) / float64(s.FlowLookups)
	}
	// ShardImbalance: the mean over windows of (max lane busy time / mean
	// lane busy time), approximated from the sums. 1.0 is a perfectly
	// balanced run; 0 means no sharded window has executed.
	if s.ShardWindows > 0 && s.ShardBusyNs > 0 && s.LaneWindows > 0 {
		maxMean := float64(s.ShardBusyMaxNs) / float64(s.ShardWindows)
		s.ShardImbalance = maxMean / (float64(s.ShardBusyNs) / float64(s.LaneWindows))
	}
	return s
}

// addProcess fills in the process-wide series.
func (s *Snapshot) addProcess() {
	process.mu.Lock()
	gets := int64(process.sum.PoolGets)
	process.mu.Unlock()
	s.PoolMisses = PoolMisses.Load()
	s.PoolHitRate = 1
	if gets > 0 {
		s.PoolHitRate = 1 - float64(s.PoolMisses)/float64(gets)
	}
	s.SweepRuns, s.SweepJobs = Sweeps.Runs.Load(), Sweeps.Jobs.Load()
	s.SweepBusyNs, s.SweepWallNs = Sweeps.BusyNs.Load(), Sweeps.WallNs.Load()
	s.SweepWorkers = Sweeps.Workers.Load()
	for w := 0; w < int(min(s.SweepWorkers, maxSweepWorkers)); w++ {
		s.SweepWorkerBusyNs = append(s.SweepWorkerBusyNs, Sweeps.workerBusyNs[w].Load())
		s.SweepWorkerJobs = append(s.SweepWorkerJobs, Sweeps.workerJobs[w].Load())
	}
}
