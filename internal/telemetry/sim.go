package telemetry

import "sync/atomic"

// EventKind mirrors the simulator's event discriminant for per-kind
// accounting. The order must match internal/network's eventKind.
const (
	KindFunc = iota
	KindProcess
	KindPacketIn
	KindSelf
	numKinds
)

// KindNames are the exposition labels of the event kinds.
var KindNames = [numKinds]string{"func", "process", "packetin", "self"}

// maxSweepWorkers bounds the per-worker utilization series.
const maxSweepWorkers = 64

// Metrics is the process-global telemetry set. Every simulator in the
// process — including all parallel sweep workers — feeds the same
// instance (M), which is what makes a single /metrics scrape describe
// the whole process.
type Metrics struct {
	// Event loop.
	Events    [numKinds]Counter // processed events by kind
	Runs      Counter           // completed Run calls
	RunErrors Counter           // Runs that returned an error
	RunSimNs  Histogram         // per-Run span in simulation time
	RunWallNs Histogram         // per-Run span in wall-clock time
	HeapDepth Histogram         // event-heap depth, observed at every pop
	HeapPeak  MaxGauge          // process-wide peak heap depth
	QueueWait Histogram         // sim-time an event sat in the heap
	HopWallNs Histogram         // wall-clock per event, sampled 1 in 64

	// Data plane.
	Hops        Counter // link transmission attempts
	HopsDropped Counter // attempts swallowed by down/blackhole/lossy links
	PacketIns   Counter // packets delivered to the controller attachment
	SelfDeliver Counter // packets delivered to switch-local hosts

	// Packet freelist. Misses are counted at the pool's New hook (exact,
	// and rare enough for an atomic). Gets are counted by the simulator
	// core — one per emission, plus injection and observer pre-exec
	// clones — so the hot ClonePooled path carries no atomic; clones made
	// outside a running simulation (direct Switch API use) are not
	// counted.
	PoolGets   Counter // packet clones drawn from the freelist
	PoolMisses Counter // Gets that had to allocate a fresh packet

	// FlowTable dispatch: total lookups and entries probed (the ratio is
	// the dispatch fan-out; 1.0 = every lookup hit its first candidate),
	// split into lookups that found the compiled matcher in place vs
	// those that did not: flow-table lookups that had to compile it first,
	// and every state-table lookup (state tables have no matcher).
	// FallbackLookups staying zero on an of13 run is the health signal
	// that every install path ends in CompileDispatch.
	FlowLookups     Counter // total = matcher + fallback
	FlowScanned     Counter
	MatcherLookups  Counter // lookups served by a matcher already in place
	FallbackLookups Counter // inline-compiled flow-table lookups + state-table lookups

	// StateCommits counts committed state-table writes — the stateful
	// backend's wire-speed EFSM transitions. Zero under the of13 backend.
	StateCommits Counter

	// Parallel sweep runner.
	SweepRuns    Counter                       // Sweep invocations
	SweepJobs    Counter                       // jobs completed
	SweepBusyNs  Counter                       // summed per-job wall time
	SweepWallNs  Counter                       // summed Sweep wall time
	SweepWorkers Gauge                         // workers of the last Sweep
	WorkerBusyNs [maxSweepWorkers]atomic.Int64 // per-worker busy ns, last Sweep
	WorkerJobs   [maxSweepWorkers]atomic.Int64 // per-worker job count, last Sweep

	// Monitoring application (internal/monitor).
	MonitorRounds     Counter
	MonitorWatchdog   Counter // watchdog (smart-counter) rounds run
	MonitorEvents     Counter // topology/blackhole events emitted
	MonitorBlackholes Counter // blackhole-found events

	// Flight recorder.
	FlightRecords Counter // records written across all recorders
	FlightDumps   Counter // post-mortem dumps written

	// Causal tracer.
	SpanRecords Counter // execution spans recorded across all lanes

	// Sharded engine runtime. The per-window values are staged lane- and
	// coordinator-locally (SimLocal) and flushed once per Run like every
	// other simulator counter; Shards is the worker-lane count of the most
	// recently built network (1 for the classic single loop).
	Shards         Gauge
	ShardWindows   Counter   // conservative windows opened
	WindowSimNs    Histogram // window width in simulation time (ns)
	BarrierStallNs Histogram // per-active-lane wall time idle at the barrier
	StagedDepth    Histogram // staged cross-lane deliveries per destination at a merge
	CutMsgs        Counter   // deliveries buffered across a shard boundary
	ShardBusyNs    Counter   // summed per-lane window busy wall time (ns)
	ShardBusyMaxNs Counter   // summed per-window max lane busy wall time (ns)
	LaneWindows    Counter   // lane-window executions (active lanes summed per window)
}

// ShardImbalance returns the load-imbalance ratio of the sharded engine:
// mean over windows of (max lane busy time / mean lane busy time),
// approximated from the aggregated counters. 1.0 is a perfectly balanced
// run; 0 means no sharded windows have executed.
func (m *Metrics) ShardImbalance() float64 {
	windows := m.ShardWindows.Load()
	busy := m.ShardBusyNs.Load()
	laneWindows := m.LaneWindows.Load()
	if windows == 0 || busy == 0 || laneWindows == 0 {
		return 0
	}
	maxMean := float64(m.ShardBusyMaxNs.Load()) / float64(windows)
	mean := float64(busy) / float64(laneWindows)
	if mean == 0 {
		return 0
	}
	return maxMean / mean
}

// M is the process-global metrics set.
var M = &Metrics{}

// ResetSweepWorkers clears the per-worker utilization slots at the start
// of a Sweep, so the exposed series describe the most recent sweep.
func (m *Metrics) ResetSweepWorkers(workers int) {
	if workers > maxSweepWorkers {
		workers = maxSweepWorkers
	}
	for i := 0; i < workers; i++ {
		m.WorkerBusyNs[i].Store(0)
		m.WorkerJobs[i].Store(0)
	}
}

// NoteSweepJob records one completed sweep job on worker w.
func (m *Metrics) NoteSweepJob(w int, busyNs int64) {
	m.SweepJobs.Inc()
	m.SweepBusyNs.Add(busyNs)
	if w >= 0 && w < maxSweepWorkers {
		m.WorkerBusyNs[w].Add(busyNs)
		m.WorkerJobs[w].Add(1)
	}
}

// PoolHitRate returns the packet-freelist hit rate in [0,1] (1 when the
// pool has never been asked).
func (m *Metrics) PoolHitRate() float64 {
	gets := m.PoolGets.Load()
	if gets == 0 {
		return 1
	}
	return 1 - float64(m.PoolMisses.Load())/float64(gets)
}

// SimLocal is the single-owner staging area one simulator records into.
// All fields are plain integers: the owning event loop is the only
// writer, and FlushTo publishes them to the global Metrics at Run
// boundaries. The zero value is ready to use.
type SimLocal struct {
	Events    [numKinds]uint64
	HeapDepth LocalHist
	QueueWait LocalHist
	HopWallNs LocalHist
	heapPeak  int64

	Hops        uint64
	HopsDropped uint64
	PacketIns   uint64
	SelfDeliver uint64

	PoolGets        uint64
	MatcherLookups  uint64
	FallbackLookups uint64
	FlowScanned     uint64
	StateCommits    uint64

	FlightRecords uint64
	SpanRecords   uint64

	// Sharded engine runtime. Windows, the window/stall/depth histograms
	// and the busy aggregates are written by the coordinator (the control
	// lane, with all workers parked); CutMsgs is written lane-locally on
	// the hop path and folded in by MergeFrom.
	Windows        uint64
	WindowSimNs    LocalHist
	BarrierStallNs LocalHist
	StagedDepth    LocalHist
	CutMsgs        uint64
	LaneBusyNs     uint64
	LaneBusyMaxNs  uint64
	LaneWindows    uint64
}

// ObserveHeapDepth records the event-heap depth at a pop.
func (s *SimLocal) ObserveHeapDepth(d int64) {
	s.HeapDepth.Observe(d)
	if d > s.heapPeak {
		s.heapPeak = d
	}
}

// MergeFrom folds another staging area into s and clears o — used by the
// sharded simulator to collapse per-lane staging into the control lane's
// before a single FlushTo publishes the Run. Both sides must be quiescent
// (the owning loops parked at a barrier or finished).
func (s *SimLocal) MergeFrom(o *SimLocal) {
	for k := 0; k < numKinds; k++ {
		s.Events[k] += o.Events[k]
		o.Events[k] = 0
	}
	s.HeapDepth.Merge(&o.HeapDepth)
	s.QueueWait.Merge(&o.QueueWait)
	s.HopWallNs.Merge(&o.HopWallNs)
	if o.heapPeak > s.heapPeak {
		s.heapPeak = o.heapPeak
	}
	o.heapPeak = 0

	move := func(dst, src *uint64) {
		*dst += *src
		*src = 0
	}
	move(&s.Hops, &o.Hops)
	move(&s.HopsDropped, &o.HopsDropped)
	move(&s.PacketIns, &o.PacketIns)
	move(&s.SelfDeliver, &o.SelfDeliver)
	move(&s.PoolGets, &o.PoolGets)
	move(&s.MatcherLookups, &o.MatcherLookups)
	move(&s.FallbackLookups, &o.FallbackLookups)
	move(&s.FlowScanned, &o.FlowScanned)
	move(&s.StateCommits, &o.StateCommits)
	move(&s.FlightRecords, &o.FlightRecords)
	move(&s.SpanRecords, &o.SpanRecords)
	move(&s.Windows, &o.Windows)
	s.WindowSimNs.Merge(&o.WindowSimNs)
	s.BarrierStallNs.Merge(&o.BarrierStallNs)
	s.StagedDepth.Merge(&o.StagedDepth)
	move(&s.CutMsgs, &o.CutMsgs)
	move(&s.LaneBusyNs, &o.LaneBusyNs)
	move(&s.LaneBusyMaxNs, &o.LaneBusyMaxNs)
	move(&s.LaneWindows, &o.LaneWindows)
}

// FlushTo publishes and clears the staged values. simNs/wallNs are the
// Run's spans; err reports whether the Run failed.
func (s *SimLocal) FlushTo(m *Metrics, simNs, wallNs int64, err bool) {
	for k := 0; k < numKinds; k++ {
		if s.Events[k] > 0 {
			m.Events[k].Add(int64(s.Events[k]))
			s.Events[k] = 0
		}
	}
	s.HeapDepth.FlushTo(&m.HeapDepth)
	s.QueueWait.FlushTo(&m.QueueWait)
	s.HopWallNs.FlushTo(&m.HopWallNs)
	m.HeapPeak.Observe(s.heapPeak)
	s.heapPeak = 0

	flush := func(c *Counter, v *uint64) {
		if *v > 0 {
			c.Add(int64(*v))
			*v = 0
		}
	}
	flush(&m.Hops, &s.Hops)
	flush(&m.HopsDropped, &s.HopsDropped)
	flush(&m.PacketIns, &s.PacketIns)
	flush(&m.SelfDeliver, &s.SelfDeliver)
	flush(&m.PoolGets, &s.PoolGets)
	if lk := s.MatcherLookups + s.FallbackLookups; lk > 0 {
		m.FlowLookups.Add(int64(lk))
	}
	flush(&m.MatcherLookups, &s.MatcherLookups)
	flush(&m.FallbackLookups, &s.FallbackLookups)
	flush(&m.FlowScanned, &s.FlowScanned)
	flush(&m.StateCommits, &s.StateCommits)
	flush(&m.FlightRecords, &s.FlightRecords)
	flush(&m.SpanRecords, &s.SpanRecords)

	flush(&m.ShardWindows, &s.Windows)
	s.WindowSimNs.FlushTo(&m.WindowSimNs)
	s.BarrierStallNs.FlushTo(&m.BarrierStallNs)
	s.StagedDepth.FlushTo(&m.StagedDepth)
	flush(&m.CutMsgs, &s.CutMsgs)
	flush(&m.ShardBusyNs, &s.LaneBusyNs)
	flush(&m.ShardBusyMaxNs, &s.LaneBusyMaxNs)
	flush(&m.LaneWindows, &s.LaneWindows)

	m.Runs.Inc()
	if err {
		m.RunErrors.Inc()
	}
	m.RunSimNs.Observe(simNs)
	m.RunWallNs.Observe(wallNs)
}
