package telemetry

import (
	"sync"
	"sync/atomic"
)

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

// Counters is the one counter set: every lane of a network stages into
// one, the network folds the staging into its own Counters at the end of
// each Run, and the process tier sums every fold into a third. All
// fields are plain integers; a Counters belongs to one goroutine at a
// time (its lane, or whoever holds the lock of the totals). The zero
// value is ready to use.
type Counters struct {
	counts

	// Histograms, in the order of hists.
	RunSimNs  LocalHist // per-Run span in simulation time
	RunWallNs LocalHist // per-Run span in wall-clock time
	HeapDepth LocalHist // event-heap depth, sampled at pops
	QueueWait LocalHist // sim-time an event sat in the heap
	HopWallNs LocalHist // wall-clock per event, sampled 1 in 64

	// Sharded engine: window width in simulation time, per-active-lane
	// wall time idle at the barrier, and staged cross-lane deliveries per
	// destination at a merge. Written by the coordinator (the control
	// lane, with all workers parked).
	WindowSimNs    LocalHist
	BarrierStallNs LocalHist
	StagedDepth    LocalHist
}

// counts holds the scalar series of a Counters, so Reset can zero them in
// one assignment while the histograms clear only their touched spans.
type counts struct {
	// Event loop.
	Events    [numKinds]uint64 // processed events by kind
	Runs      uint64           // completed Run calls
	RunErrors uint64           // Runs that returned an error
	HeapPeak  int64            // peak event-heap depth (a maximum, not a sum)

	// Data plane.
	Hops        uint64 // link transmission attempts
	HopsDropped uint64 // attempts swallowed by down/blackhole/lossy links
	PacketIns   uint64 // packets delivered to the controller attachment
	SelfDeliver uint64 // packets delivered to switch-local hosts

	// PoolGets counts packet clones drawn from the freelist by the
	// simulator core — one per emission, plus injection and observer
	// pre-exec clones — so the hot ClonePooled path carries no atomic.
	// Misses are process-wide (see PoolMisses).
	PoolGets uint64

	// Flow-table dispatch: lookups that found the compiled matcher in
	// place, those that did not (flow-table lookups that had to compile it
	// first, and every state-table lookup: state tables have no matcher),
	// and the entries probed across both. FallbackLookups staying zero on
	// an of13 run is the health signal that every install path ends in
	// CompileDispatch.
	MatcherLookups  uint64
	FallbackLookups uint64
	FlowScanned     uint64
	// StateCommits counts committed state-table writes — the stateful
	// backend's wire-speed EFSM transitions. Zero under the of13 backend.
	StateCommits uint64

	// Monitoring application (internal/monitor).
	MonitorRounds     uint64
	MonitorWatchdog   uint64 // watchdog (smart-counter) rounds run
	MonitorEvents     uint64 // topology/blackhole events emitted
	MonitorBlackholes uint64 // blackhole-found events

	FlightRecords uint64 // flight-recorder records written
	FlightDumps   uint64 // post-mortem dumps written
	SpanRecords   uint64 // causal-tracer execution spans recorded

	// Sharded engine. CutMsgs is written lane-locally on the hop path;
	// the rest by the coordinator.
	Windows       uint64 // conservative windows opened
	CutMsgs       uint64 // deliveries buffered across a shard boundary
	LaneBusyNs    uint64 // summed per-lane window busy wall time
	LaneBusyMaxNs uint64 // summed per-window max lane busy wall time
	LaneWindows   uint64 // lane-window executions (active lanes summed per window)
}

// hists lists the histograms of c.
func (c *Counters) hists() [8]*LocalHist {
	return [...]*LocalHist{&c.RunSimNs, &c.RunWallNs, &c.HeapDepth, &c.QueueWait, &c.HopWallNs,
		&c.WindowSimNs, &c.BarrierStallNs, &c.StagedDepth}
}

// ObserveHeapDepth records the event-heap depth at a pop.
func (c *Counters) ObserveHeapDepth(d int64) {
	c.HeapDepth.Observe(d)
	c.HeapPeak = max(c.HeapPeak, d)
}

// Add is the fold: it adds o to c and leaves o as it was.
func (c *Counters) Add(o *Counters) {
	for k := range c.Events {
		c.Events[k] += o.Events[k]
	}
	c.Runs += o.Runs
	c.RunErrors += o.RunErrors
	c.HeapPeak = max(c.HeapPeak, o.HeapPeak)
	c.Hops += o.Hops
	c.HopsDropped += o.HopsDropped
	c.PacketIns += o.PacketIns
	c.SelfDeliver += o.SelfDeliver
	c.PoolGets += o.PoolGets
	c.MatcherLookups += o.MatcherLookups
	c.FallbackLookups += o.FallbackLookups
	c.FlowScanned += o.FlowScanned
	c.StateCommits += o.StateCommits
	c.MonitorRounds += o.MonitorRounds
	c.MonitorWatchdog += o.MonitorWatchdog
	c.MonitorEvents += o.MonitorEvents
	c.MonitorBlackholes += o.MonitorBlackholes
	c.FlightRecords += o.FlightRecords
	c.FlightDumps += o.FlightDumps
	c.SpanRecords += o.SpanRecords
	c.Windows += o.Windows
	c.CutMsgs += o.CutMsgs
	c.LaneBusyNs += o.LaneBusyNs
	c.LaneBusyMaxNs += o.LaneBusyMaxNs
	c.LaneWindows += o.LaneWindows
	ch, oh := c.hists(), o.hists()
	for i := range ch {
		ch[i].Merge(oh[i])
	}
}

// Reset clears c.
func (c *Counters) Reset() {
	c.counts = counts{}
	for _, h := range c.hists() {
		h.Reset()
	}
}

// The process tier: what no single network owns. The sum of every
// network's folds backs the process view (ProcessSnap); pool misses are
// counted where the shared packet freelist allocates, and the sweep
// runner spans many networks by design.
var (
	process struct {
		mu     sync.Mutex
		sum    Counters
		shards atomic.Int64 // worker-lane count of the most recently built network
	}

	// PoolMisses counts packet-freelist Gets that had to allocate — exact,
	// and rare enough for an atomic.
	PoolMisses atomic.Int64

	// Sweeps is the parallel sweep runner's series.
	Sweeps SweepStats
)

// Fold adds a network's Run (or out-of-loop tally) to the process sum.
func Fold(c *Counters) {
	process.mu.Lock()
	process.sum.Add(c)
	process.mu.Unlock()
}

// NoteShards records the worker-lane count of a newly built network.
func NoteShards(n int) { process.shards.Store(int64(n)) }

// maxSweepWorkers bounds the per-worker utilization series.
const maxSweepWorkers = 64

// SweepStats is the parallel sweep runner's process-wide series.
type SweepStats struct {
	Runs    atomic.Int64 // Sweep invocations
	Jobs    atomic.Int64 // jobs completed
	BusyNs  atomic.Int64 // summed per-job wall time
	WallNs  atomic.Int64 // summed Sweep wall time
	Workers atomic.Int64 // workers of the last Sweep

	workerBusyNs [maxSweepWorkers]atomic.Int64 // per-worker busy ns, last Sweep
	workerJobs   [maxSweepWorkers]atomic.Int64 // per-worker job count, last Sweep
}

// Start counts a Sweep over workers workers and clears the per-worker
// slots, so the exposed series describe the most recent sweep.
func (s *SweepStats) Start(workers int) {
	s.Runs.Add(1)
	s.Workers.Store(int64(workers))
	for i := 0; i < min(workers, maxSweepWorkers); i++ {
		s.workerBusyNs[i].Store(0)
		s.workerJobs[i].Store(0)
	}
}

// NoteJob records one completed sweep job on worker w.
func (s *SweepStats) NoteJob(w int, busyNs int64) {
	s.Jobs.Add(1)
	s.BusyNs.Add(busyNs)
	if w >= 0 && w < maxSweepWorkers {
		s.workerBusyNs[w].Add(busyNs)
		s.workerJobs[w].Add(1)
	}
}
