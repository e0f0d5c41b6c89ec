// Package smartsouth is a faithful, simulator-backed implementation of
// "Reclaiming the Brain: Useful OpenFlow Functions in the Data Plane"
// (Schiff, Borokhovich, Schmid — HotNets 2014).
//
// SmartSouth compiles an in-band depth-first network traversal — and the
// paper's four case-study services on top of it — into ordinary OpenFlow
// 1.3 flow and group entries. A generic match-action pipeline (package
// internal/openflow) executes those rules inside a deterministic
// discrete-event network simulator (package internal/network); nothing
// service-specific runs at packet time, which is the paper's point: the
// data plane stays dumb and formally inspectable, yet can take topology
// snapshots, deliver anycast/priocast messages, detect blackholes and
// packet loss with switch-local smart counters, and decide node
// criticality — all with O(1) controller involvement.
//
// Typical use:
//
//	g := smartsouth.Grid(4, 4)
//	d := smartsouth.Deploy(g, smartsouth.WithTrace(1024))
//	snap, _ := d.InstallSnapshot()
//	snap.Trigger(0, 0)
//	d.Run()
//	res, _ := snap.Collect() // res.Nodes, res.Edges
//	for _, m := range d.MetricsSnapshot() { ... }
//	for _, ev := range d.Trace.Events() { ... }
//
// Deploy and DeployRemote return the same Deployment type: the only
// difference is the control plane underneath — direct calls into the
// simulated switches (local) or binary OpenFlow 1.3 over per-switch TCP
// sessions (remote). Every service installer, the observability layer
// (hop traces, rule-hit counters, per-service metrics), Uninstall and the
// verifiers work identically on both.
package smartsouth

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/dump"
	"smartsouth/internal/metrics"
	"smartsouth/internal/monitor"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/remote"
	"smartsouth/internal/telemetry"
	"smartsouth/internal/topo"
	"smartsouth/internal/trace"
	"smartsouth/internal/verify"
)

// Re-exported building blocks. The internal packages carry the full API;
// these aliases are the supported public surface.
type (
	// Graph is a port-numbered undirected topology.
	Graph = topo.Graph
	// Edge is one link with its port numbers on both endpoints.
	Edge = topo.Edge
	// Network is the discrete-event data plane.
	Network = network.Network
	// Controller is the out-of-band control plane.
	Controller = controller.Controller
	// Packet is the unit the OpenFlow pipeline processes.
	Packet = openflow.Packet
	// Time is simulation time in nanoseconds.
	Time = network.Time
	// Hop is one in-band link crossing, as reported to Network.ObserveHops
	// observers.
	Hop = network.Hop

	// Snapshot is the §3.1 in-band topology snapshot service.
	Snapshot = core.Snapshot
	// SnapshotSplit is the snapshot variant that splits its report across
	// bounded-size fragments (the §3.1 splitting remark).
	SnapshotSplit = core.SnapshotSplit
	// SnapshotResult is a decoded snapshot.
	SnapshotResult = core.Result
	// Anycast is the §3.2 anycast service.
	Anycast = core.Anycast
	// Priocast is the §3.2 priority-anycast service.
	Priocast = core.Priocast
	// PrioMember is one priocast receiver with its priority.
	PrioMember = core.PrioMember
	// BlackholeTTL is the §3.3 TTL-binary-search blackhole detector.
	BlackholeTTL = core.BlackholeTTL
	// BlackholeCounter is the §3.3 smart-counter blackhole detector.
	BlackholeCounter = core.BlackholeCounter
	// BlackholeReport names a located blackhole.
	BlackholeReport = core.Report
	// PktLoss is the §3.3 packet-loss monitor.
	PktLoss = core.PktLoss
	// LossReport names a directed link with detected loss.
	LossReport = core.LossReport
	// Critical is the §3.4 critical-node service.
	Critical = core.Critical
	// Traversal is the bare SmartSouth template (an in-band liveness
	// sweep).
	Traversal = core.Traversal
	// Chaincast is the §3.2 service-chaining extension (middlebox chains).
	Chaincast = core.Chaincast
	// LoadMap is the §4 load-inference extension built on smart counters.
	LoadMap = core.LoadMap
	// PortLoad identifies a sampled port in a LoadMap report.
	PortLoad = core.PortLoad
	// PortKnock is the knock-sequence guard — wire-speed keyed state under
	// the stateful backend, controller-assisted under OF13.
	PortKnock = core.PortKnock
	// Backend is a compile backend: a lowering of the service IR onto one
	// data-plane primitive set (of13 flow/groups, or stateful XFSM tables).
	Backend = core.Backend
	// Finding is one finding of the static checker (Verify, Analyze; see
	// internal/verify).
	Finding = verify.Finding
	// ControlPlane is the interface services program against; both the
	// local controller and the TCP fabric implement it.
	ControlPlane = core.ControlPlane
	// Supervisor retries traversals whose trigger packet was lost to a
	// mid-execution failure (the paper's stated limitation).
	Supervisor = core.Supervisor
	// Monitor is the troubleshooting application composing the services:
	// periodic snapshot diffing plus a blackhole watchdog.
	Monitor = monitor.Monitor
	// MonitorEvent is one topology change or silent-failure detection.
	MonitorEvent = monitor.Event
	// Fabric is the OpenFlow-over-TCP control plane (see DeployRemote).
	Fabric = remote.Fabric
	// Program is the declarative install unit every service compiles to:
	// the full set of flow and group entries, per switch, checked before
	// installation and retained by the control plane for accounting.
	Program = openflow.Program

	// Stats counts control-channel traffic (flow-mods, packet-outs,
	// packet-ins, bytes) on either control plane.
	Stats = controller.Stats
	// TraceEvent is one recorded pipeline execution: switch, in-port,
	// matched rules, group-bucket choices, decoded tag fields, emissions.
	TraceEvent = trace.Event
	// TraceRecorder is the ring-buffer hop-trace store (see WithTrace).
	TraceRecorder = trace.Recorder
	// SpanRecord is one execution span of the causal tracer (see
	// WithTimeline): a pipeline execution of a traced packet, linked to
	// its parent execution so traversals reconstruct as trees.
	SpanRecord = telemetry.SpanRecord
	// TraceTree is one reconstructed traversal (see BuildTraces): the
	// spans of a trace id linked parent→child, with cross-shard edge
	// counts.
	TraceTree = trace.TraceTree
	// SpanNode is one node of a TraceTree.
	SpanNode = trace.SpanNode
	// Telemetry is a point-in-time snapshot of a counter set — one
	// network's (Net.Telemetry) or the process sum (TelemetrySnapshot):
	// counters, gauges, histogram views with quantiles.
	Telemetry = telemetry.Snapshot
	// ServiceMetrics is the aggregated observability view of one deployed
	// service: install cost, trigger/collect messages, in-band messages
	// and bytes (the Table 2 columns), traversal wall-clock, rule hits.
	ServiceMetrics = metrics.ServiceMetrics
	// MetricsRegistry aggregates ServiceMetrics for a deployment.
	MetricsRegistry = metrics.Registry
	// RuleHit is the live packet counter of one installed flow rule.
	RuleHit = openflow.RuleHit
	// GroupHit is the live execution counter of one group bucket.
	GroupHit = openflow.GroupHit
)

// Topology generators.
var (
	Line            = topo.Line
	Ring            = topo.Ring
	Star            = topo.Star
	Tree            = topo.Tree
	Grid            = topo.Grid
	RandomConnected = topo.RandomConnected
	FatTree         = topo.FatTree
	BarabasiAlbert  = topo.BarabasiAlbert
	Waxman          = topo.Waxman
	Clos            = topo.Clos
	ISP             = topo.ISP
	NewGraph        = topo.NewGraph
)

// Partition maps every node of a graph to one of k shards (greedy BFS
// growth, deterministic) — the assignment a sharded deployment runs on.
// EdgeCut counts the cross-shard edges of such an assignment.
var (
	Partition = topo.Partition
	EdgeCut   = topo.EdgeCut
)

// Option configures a deployment; see the functional options below.
type Option = network.Option

// Functional options.
var (
	// WithSeed seeds the loss process of lossy links.
	WithSeed = network.WithSeed
	// WithLinkDelay sets the one-way latency of every link.
	WithLinkDelay = network.WithLinkDelay
	// WithEventLimit bounds simulator events per Run.
	WithEventLimit = network.WithEventLimit
	// WithTrace enables the per-packet hop trace, retaining the last n
	// pipeline executions (n <= 0 selects the default capacity).
	WithTrace = network.WithTrace
	// WithoutTelemetry disables the always-on instrumentation (counters,
	// histograms, flight recorder) — the off arm of the overhead
	// benchmark.
	WithoutTelemetry = network.WithoutTelemetry
	// WithFlightCap sizes the flight-recorder ring (0 default, negative
	// disables the recorder).
	WithFlightCap = network.WithFlightCap
	// WithBackend selects the compile backend ("of13" or "stateful");
	// empty defers to the SMARTSOUTH_BACKEND environment variable, then
	// of13. Every installer of the deployment lowers through it.
	WithBackend = network.WithBackend
	// WithAnalysis gates every install on the network-wide symbolic
	// analysis: a service whose composition with the already-installed
	// services produces an error-severity finding (cross-service
	// conflict, forwarding loop, blackhole) is rejected before any rule
	// reaches a switch.
	WithAnalysis = network.WithAnalysis
	// WithShards partitions the topology across n shards simulated by
	// concurrent event loops under conservative time windows. n <= 1
	// keeps the classic single-loop simulator (byte-identical behaviour);
	// n > 1 is deterministic for any fixed n but may order simultaneous
	// independent events differently than the single loop.
	WithShards = network.WithShards
	// WithTimeline enables the causal traversal tracer, deepening each
	// lane's flight ring to at least the last n execution records (n <= 0
	// selects the default). Read the result with SpanRecords (BuildTraces makes
	// trees of them) or WriteTimeline, or from the /traces endpoint of
	// Deployment.ServeTelemetry.
	WithTimeline = network.WithTimeline
)

// Errors returns the error-severity findings of Verify or Analyze.
var Errors = verify.Errors

// BuildTraces reassembles merged span records (Deployment.SpanRecords)
// into per-traversal trees, ascending by trace id. A tree is Complete
// when its root and every intermediate span are still retained; on long
// runs the store keeps only the most recent traversals whole.
var BuildTraces = trace.BuildTraces

// TelemetrySnapshot captures the process view: the sum of every
// deployment's counters in the process (event/hop/packet-in counters,
// flow-table fan-out, latency histograms with quantiles) plus the
// process-wide series — packet-pool misses and hit rate, the sweep
// runner. One deployment's own counters are d.Net.Telemetry().
func TelemetrySnapshot() Telemetry { return telemetry.ProcessSnap() }

// ServeTelemetry starts the process-wide observability HTTP server on
// addr (host:port; :0 picks a free port) and returns the bound address.
// It serves the process view on /metrics (Prometheus text), /telemetry
// (JSON) and /healthz, plus /debug/vars (expvar) and /debug/pprof; it has
// no /traces. Deployment.ServeTelemetry serves one deployment.
func ServeTelemetry(addr string) (string, error) {
	return telemetry.Serve(addr, telemetry.Source{Snap: telemetry.ProcessSnap})
}

// Deployment couples one topology with its simulated network and a
// control plane — local (Ctl) or OpenFlow-over-TCP (Fabric) — and hands
// out service slots so several SmartSouth services coexist on the same
// switches. All installers, the observability layer and the verifiers
// behave identically on both planes; that is tested.
type Deployment struct {
	Graph *Graph
	Net   *Network

	// CP is the control plane services are installed through: Ctl or
	// Fabric, behind the install gate under WithAnalysis. Use it for
	// anything the ControlPlane interface offers.
	CP ControlPlane
	// Ctl is the local controller, nil on remote deployments.
	Ctl *Controller
	// Fabric is the TCP control plane, nil on local deployments.
	Fabric *Fabric

	// Trace is the hop-trace recorder, nil unless WithTrace was given.
	Trace *TraceRecorder

	// FlightDumpPath, when set, is where the flight recorder's post-mortem
	// JSONL is written whenever Run fails or the analysis gate rejects a
	// program. Leave empty to dump only on explicit DumpFlight calls.
	FlightDumpPath string

	reg   *metrics.Registry
	slots *core.SlotAllocator
	be    core.Backend

	// Timeline store served by SpanRecords and /traces. The live per-lane
	// rings are only safe to read at a barrier, so Run
	// drains the new records into this slice under the mutex (O(new
	// spans), not O(ring capacity)) and readers — including the HTTP
	// handler, any goroutine, any time — copy from it. Retention is
	// bounded at twice the aggregate ring capacity (timelineMax), so a
	// long-lived traced deployment keeps the most recent traversals, like
	// the rings themselves.
	timelineMu  sync.Mutex
	timeline    []SpanRecord
	timelineMax int
}

// BackendName returns the compile backend this deployment lowers services
// with ("of13" or "stateful").
func (d *Deployment) BackendName() string { return d.be.Name() }

// resolveBackend maps a deployment's configured backend name to the core
// backend: the explicit WithBackend option wins, then the
// SMARTSOUTH_BACKEND environment variable, then of13.
func resolveBackend(cfg network.Config) (core.Backend, error) {
	name := cfg.Backend
	if name == "" {
		name = os.Getenv("SMARTSOUTH_BACKEND")
	}
	if name == "" {
		return core.OF13, nil
	}
	return core.BackendByName(name)
}

// newDeployment wires a deployment over net and its control plane: the
// local controller ctl or the TCP fabric f, the other nil. It adds the
// WithAnalysis gate, the per-service metrics registry (a read of the
// network's counters), and the trace and timeline stores.
func newDeployment(net *Network, cfg network.Config, be core.Backend, ctl *Controller, f *Fabric) *Deployment {
	d := &Deployment{
		Graph:  net.Graph,
		Net:    net,
		Ctl:    ctl,
		Fabric: f,
		reg:    metrics.NewRegistry(net),
		slots:  core.NewSlotAllocator(0),
		be:     be,
	}
	if ctl != nil {
		d.CP = ctl
	} else {
		d.CP = f
	}
	if cfg.Analysis {
		d.CP = &analysisGate{ControlPlane: d.CP, d: d}
	}
	if cfg.TraceCap > 0 {
		d.Trace = trace.NewRecorder(net, cfg.TraceCap)
		net.ObserveExec(d.Trace.OnExec)
	}
	if cfg.Opts.Timeline > 0 {
		d.timelineMax = cfg.Opts.Timeline * (net.Shards() + 1)
	}
	return d
}

// analysisGate decorates a control plane with the network-wide symbolic
// install gate (see WithAnalysis). It satisfies core.ProgramGater, so
// core's installProgram choke point consults it for every non-transient
// program before any rule reaches a switch.
type analysisGate struct {
	ControlPlane
	d *Deployment
}

// GateProgram composes the candidate with the retained programs and
// rejects it if the analyzer finds any error-severity defect.
func (g *analysisGate) GateProgram(p *Program) error {
	progs := append(g.ControlPlane.Programs(), p)
	errs := Errors(verify.CheckDeployment(progs, g.d.Graph, g.d.analysisOptions()))
	if len(errs) > 0 {
		g.d.Net.FlightNote("analysis-gate rejection: " + errs[0].String())
		g.d.dumpFlightOnFailure("analysis gate")
		return fmt.Errorf("static analysis found %d error(s), first: %s", len(errs), errs[0])
	}
	return nil
}

// analysisOptions is the deployment's standard analyzer configuration:
// the slot geometry every service compiles against, and host data
// traffic as an additional symbolic seed.
func (d *Deployment) analysisOptions() verify.Options {
	return verify.Options{
		HostEthTypes: []uint16{core.EthData},
		SlotTables:   core.SlotTables,
		SlotGroups:   core.SlotGroups,
	}
}

// Analyze runs the network-wide symbolic analysis over the retained
// programs on demand: cross-service conflicts, forwarding loops,
// blackholes and unreachable rules, without simulating a packet.
// Findings come back most severe first; Errors filters.
func (d *Deployment) Analyze() []Finding {
	return verify.CheckDeployment(d.CP.Programs(), d.Graph, d.analysisOptions())
}

// Deploy builds the network and attaches the local controller. The
// compile backend comes from WithBackend, then the SMARTSOUTH_BACKEND
// environment variable, then of13; an unknown name panics (Deploy has no
// error path, and a misconfigured backend must not silently fall back).
func Deploy(g *Graph, opts ...Option) *Deployment {
	cfg := network.Resolve(opts...)
	be, err := resolveBackend(cfg)
	if err != nil {
		panic("smartsouth: " + err.Error())
	}
	net := network.New(g, cfg.Opts)
	return newDeployment(net, cfg, be, controller.New(net), nil)
}

// DeployRemote builds the network and attaches the TCP control plane (one
// OpenFlow 1.3 session per switch). Close the deployment when done. The
// returned Deployment offers the same installers and observability as a
// local one.
func DeployRemote(g *Graph, opts ...Option) (*Deployment, error) {
	cfg := network.Resolve(opts...)
	be, err := resolveBackend(cfg)
	if err != nil {
		return nil, err
	}
	if be.Stateful() {
		return nil, fmt.Errorf("smartsouth: the stateful backend compiles to state tables, which the OpenFlow 1.3 wire protocol cannot carry; use the local control plane or the of13 backend")
	}
	net := network.New(g, cfg.Opts)
	f, err := remote.New(net)
	if err != nil {
		return nil, err
	}
	return newDeployment(net, cfg, be, nil, f), nil
}

// Run processes the data plane to quiescence. On a remote deployment this
// synchronises all sessions (barrier), runs the simulator, and waits for
// relayed packet-ins.
func (d *Deployment) Run() error {
	_, err := d.CP.RunNetwork()
	if d.timelineMax > 0 {
		// Harvest the spans this run recorded: the lanes are parked now,
		// which is the only time their rings may be read. Appending only
		// the new records keeps the per-run cost proportional to the
		// run's own span count; sim time is monotone across runs, so the
		// accumulated slice stays globally time-ordered.
		d.timelineMu.Lock()
		d.timeline = d.Net.DrainSpans(d.timeline)
		if len(d.timeline) > 2*d.timelineMax {
			d.timeline = append(d.timeline[:0], d.timeline[len(d.timeline)-d.timelineMax:]...)
		}
		d.timelineMu.Unlock()
	}
	if err != nil {
		d.Net.FlightNote("run error: " + err.Error())
		d.dumpFlightOnFailure("run")
	}
	return err
}

// Close tears down the TCP sessions of a remote deployment; it is a no-op
// on a local one, so generic code can defer it unconditionally.
func (d *Deployment) Close() {
	if d.Fabric != nil {
		d.Fabric.Close()
	}
}

// Stats returns the control-channel traffic counters of the underlying
// plane.
func (d *Deployment) Stats() Stats {
	if d.Ctl != nil {
		return d.Ctl.Stats
	}
	return d.Fabric.Stats
}

// Slot reserves the next service slot, for callers driving the core
// installers directly against CP.
func (d *Deployment) Slot() int { return d.slots.Next() }

// attach makes a core service visible once its install succeeded (see
// register). A rejected install leaves no metrics entry and claims no
// EtherType, but its slots stay used: it may have left rules there.
func (d *Deployment) attach(s core.Service, err error) error {
	if err == nil {
		p, l, eths := s.Identity()
		d.register(p.Service, p.Slot, core.SlotSpan(p), l, eths...)
	}
	return err
}

// register makes an installed service visible: its metrics entry for
// slots [slot, slot+slots), and the tag decoder of every EtherType the
// entry claimed,
// with which flight-recorder records and hop-trace events decode the DFS
// state (start, par, cur) of its packets. l is nil when the packets carry
// no DFS state (portknock) or the inner layouts are not exposed (monitor);
// events are then labeled but not decoded.
func (d *Deployment) register(service string, slot, slots int, l *core.Layout, eths ...uint16) {
	m := d.reg.Register(service, slot, slots, eths...)
	names := [3]string{"start", "par", "cur"}
	var fields network.TagFields
	switch {
	case l == nil:
	case l.Stateful():
		// The packet carries only the start field — par/cur live in switch
		// state tables, so there is nothing more to decode from the tag.
		names = [3]string{"start", "", ""}
		fields = func(int) [3]openflow.Field { return [3]openflow.Field{l.Start} }
	default:
		fields = func(sw int) [3]openflow.Field {
			return [3]openflow.Field{l.Start, l.Par[sw], l.Cur[sw]}
		}
	}
	for _, eth := range m.EtherTypes {
		d.Net.RegisterTags(eth, m.Service, names, fields)
	}
}

// InstallTraversal installs the bare template.
func (d *Deployment) InstallTraversal() (*Traversal, error) {
	tr, err := core.InstallTraversal(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return tr, d.attach(tr, err)
}

// InstallSnapshot installs the topology snapshot service.
func (d *Deployment) InstallSnapshot() (*Snapshot, error) {
	snap, err := core.InstallSnapshot(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return snap, d.attach(snap, err)
}

// InstallSnapshotSplit installs the splitting snapshot with the given
// per-fragment record budget.
func (d *Deployment) InstallSnapshotSplit(budget int) (*SnapshotSplit, error) {
	ss, err := core.InstallSnapshotSplit(d.CP, d.Graph, d.slots.Next(), budget, core.WithBackend(d.be))
	return ss, d.attach(ss, err)
}

// InstallAnycast installs the anycast service with the given groups
// (group id -> member switches).
func (d *Deployment) InstallAnycast(groups map[uint32][]int) (*Anycast, error) {
	ac, err := core.InstallAnycast(d.CP, d.Graph, d.slots.Next(), groups, core.WithBackend(d.be))
	return ac, d.attach(ac, err)
}

// InstallPriocast installs the priocast service with the given groups.
func (d *Deployment) InstallPriocast(groups map[uint32][]PrioMember) (*Priocast, error) {
	pc, err := core.InstallPriocast(d.CP, d.Graph, d.slots.Next(), groups, core.WithBackend(d.be))
	return pc, d.attach(pc, err)
}

// InstallBlackholeTTL installs the TTL-probing blackhole detector.
func (d *Deployment) InstallBlackholeTTL() (*BlackholeTTL, error) {
	bh, err := core.InstallBlackholeTTL(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return bh, d.attach(bh, err)
}

// InstallBlackholeCounter installs the smart-counter blackhole detector.
func (d *Deployment) InstallBlackholeCounter() (*BlackholeCounter, error) {
	bh, err := core.InstallBlackholeCounter(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return bh, d.attach(bh, err)
}

// InstallPktLoss installs the packet-loss monitor (nil primes selects
// core.DefaultPrimes).
func (d *Deployment) InstallPktLoss(primes []int) (*PktLoss, error) {
	pl, err := core.InstallPktLoss(d.CP, d.Graph, d.slots.Next(), primes, core.WithBackend(d.be))
	return pl, d.attach(pl, err)
}

// InstallCritical installs the critical-node service.
func (d *Deployment) InstallCritical() (*Critical, error) {
	cr, err := core.InstallCritical(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return cr, d.attach(cr, err)
}

// InstallChaincast installs the service-chaining extension over the given
// ordered middlebox groups (one service slot per stage).
func (d *Deployment) InstallChaincast(chain [][]int) (*Chaincast, error) {
	cc, err := core.InstallChaincast(d.CP, d.Graph, d.slots.Reserve(len(chain)), chain, core.WithBackend(d.be))
	return cc, d.attach(cc, err)
}

// InstallLoadMap installs the load-inference extension. It owns the
// EthData ingress rules, so it cannot share a deployment with PktLoss.
func (d *Deployment) InstallLoadMap() (*LoadMap, error) {
	lm, err := core.InstallLoadMap(d.CP, d.Graph, d.slots.Next(), core.WithBackend(d.be))
	return lm, d.attach(lm, err)
}

// InstallPortKnock installs the knock-sequence guard at node guard with
// the given secret code sequence.
func (d *Deployment) InstallPortKnock(guard int, seq []uint32) (*PortKnock, error) {
	pk, err := core.InstallPortKnock(d.CP, d.Graph, d.slots.Next(), guard, seq, core.WithBackend(d.be))
	return pk, d.attach(pk, err)
}

// InstallMonitor installs the troubleshooting monitor (snapshot diffing
// from root; optional blackhole watchdog). It consumes two service slots
// and claims the EtherTypes of both inner services, whether or not the
// watchdog is on.
func (d *Deployment) InstallMonitor(root int, watchdog bool) (*Monitor, error) {
	base := d.slots.Reserve(2)
	mon, err := monitor.New(d.CP, d.Net, base, root, watchdog, core.WithBackend(d.be))
	if err != nil {
		return nil, err
	}
	d.register("monitor", base, 2, nil, core.EthSnapshot, core.EthBlackhole, core.EthBlackholeChk)
	return mon, nil
}

// Uninstall removes every flow and group entry belonging to a service
// (its table blocks, its group-ID ranges, and the table-0 dispatcher
// rules steering into them) from all switches — flow-mod/group-mod
// DELETEs in OpenFlow terms. The slots to clear are derived from the
// retained Programs: uninstalling any slot of a multi-slot service
// (chaincast, monitor) removes the whole service. Other services keep
// running; cleared slots are NOT reused by future installs. The service's
// metrics entry stays as history, marked Uninstalled, and its EtherTypes
// are credited to whoever installs them next.
func (d *Deployment) Uninstall(slot int) {
	covered := map[int]bool{slot: true}
	for _, p := range d.CP.Programs() {
		if p.CoversSlot(slot) {
			for s := p.Slot; s < p.Slot+core.SlotSpan(p); s++ {
				covered[s] = true
			}
		}
	}
	for s := range covered {
		tLo, tHi := core.SlotTables(s)
		gLo, gHi := core.SlotGroups(s)
		for i := 0; i < d.Net.NumSwitches(); i++ {
			sw := d.Net.Switch(i)
			for t := tLo; t < tHi; t++ {
				sw.ClearTable(t)
			}
			sw.Table(0).RemoveIf(func(e *openflow.FlowEntry) bool {
				return e.Goto >= tLo && e.Goto < tHi
			})
			sw.RemoveGroupRange(gLo, gHi)
			// Removal outdates the matchers of table 0 and the cleared block
			// (the mutators only bump versions); recompile those so the
			// remaining services stay on the fast path. Their own tables were
			// not written to and keep their matchers.
			sw.CompileDispatch()
		}
		d.CP.DropPrograms(s)
		d.reg.Release(s)
	}
}

// Programs returns the installed programs the control plane retains — the
// declarative record of every service's rule footprint.
func (d *Deployment) Programs() []*Program {
	return d.CP.Programs()
}

// HitCounters reads the live rule-hit and group-bucket counters of the
// programs covering slot — the per-rule view of where a service's packets
// actually went (OFPMP_FLOW / OFPMP_GROUP in OpenFlow terms).
func (d *Deployment) HitCounters(slot int) ([]RuleHit, []GroupHit) {
	var rules []RuleHit
	var groups []GroupHit
	for _, p := range d.CP.Programs() {
		if !p.CoversSlot(slot) {
			continue
		}
		r, g := p.HitCounters(d.liveSwitch)
		rules = append(rules, r...)
		groups = append(groups, g...)
	}
	return rules, groups
}

func (d *Deployment) liveSwitch(sw int) *openflow.Switch { return d.Net.Switch(sw) }

// MetricsSnapshot returns the per-service observability metrics, ordered
// by slot, with the live rule-hit/group-bucket counters of each service's
// retained programs attached.
func (d *Deployment) MetricsSnapshot() []ServiceMetrics {
	ms := d.reg.Snapshot()
	for _, p := range d.CP.Programs() {
		for i := range ms {
			if m := &ms[i]; p.Slot >= m.Slot && p.Slot < m.Slot+m.Slots {
				r, g := p.HitCounters(d.liveSwitch)
				m.RuleHits = append(m.RuleHits, r...)
				m.GroupHits = append(m.GroupHits, g...)
				break
			}
		}
	}
	return ms
}

// Metrics exposes the live registry, for callers that want to reset it or
// look up a service by EtherType.
func (d *Deployment) Metrics() *MetricsRegistry { return d.reg }

// SpanRecords returns a copy of the causal tracer's retained execution
// spans in simulation-time order, accumulated across every Run of this
// deployment (nil without WithTimeline). Safe from any goroutine: the
// store is only appended to at end-of-run barriers, under a mutex both
// sides take.
func (d *Deployment) SpanRecords() []SpanRecord {
	d.timelineMu.Lock()
	defer d.timelineMu.Unlock()
	if d.timeline == nil {
		return nil
	}
	return append([]SpanRecord(nil), d.timeline...)
}

// WriteTimeline renders the retained spans as Chrome trace-event JSON —
// loadable in Perfetto / chrome://tracing, with one swimlane block per
// shard and flow arrows on cross-shard edges.
func (d *Deployment) WriteTimeline(w io.Writer) error {
	return dump.WriteChromeTrace(w, d.SpanRecords())
}

// ServeTelemetry serves this deployment's observability endpoints on addr
// (host:port; :0 picks a free port) and returns the bound address: its
// own counters (Net.Telemetry) on /metrics, /telemetry and /healthz, its
// per-service series on /metrics, and under WithTimeline its timeline on
// /traces; plus /debug/vars (expvar, the process view) and /debug/pprof.
// Scrapes read what the last Run folded, so they are safe at any time.
func (d *Deployment) ServeTelemetry(addr string) (string, error) {
	src := telemetry.Source{
		Snap:   d.Net.Telemetry,
		Series: func(w io.Writer) { metrics.WriteProm(w, d.reg.Snapshot()) },
	}
	if d.timelineMax > 0 {
		src.Traces = d.WriteTimeline
	}
	return telemetry.Serve(addr, src)
}

// DumpFlight writes the flight recorder's last records (WithFlightCap of
// them) to w as JSONL, oldest first; it fails with network.ErrNoFlight
// under WithoutTelemetry or WithFlightCap(-1). It is the post-mortem: the
// final records replay the last traversal hop by hop, with the decoded
// DFS tag state (start, par, cur) of every pipeline execution. On a
// sharded network the per-lane rings are merged by simulation time.
func (d *Deployment) DumpFlight(w io.Writer) error {
	if err := d.Net.WriteFlightJSONL(w); err != nil {
		return err
	}
	d.Net.Tally(func(c *telemetry.Counters) { c.FlightDumps++ })
	return nil
}

// dumpFlightOnFailure writes the post-mortem to FlightDumpPath, if one is
// configured and the recorder is on. Dump errors must not mask the
// triggering failure, so they are reported on stderr only.
func (d *Deployment) dumpFlightOnFailure(why string) {
	if d.FlightDumpPath == "" {
		return
	}
	var buf bytes.Buffer
	err := d.DumpFlight(&buf)
	if err == nil {
		err = os.WriteFile(d.FlightDumpPath, buf.Bytes(), 0o644)
	}
	if err != nil && !errors.Is(err, network.ErrNoFlight) {
		fmt.Fprintf(os.Stderr, "smartsouth: flight dump (%s) to %s failed: %v\n", why, d.FlightDumpPath, err)
	}
}

// Verify statically checks the installed configuration of every switch
// and returns all findings (see internal/verify for the property list);
// Errors filters.
func (d *Deployment) Verify() []Finding {
	var all []Finding
	for i := 0; i < d.Net.NumSwitches(); i++ {
		all = append(all, verify.Switch(d.Net.Switch(i), verify.Options{})...)
	}
	return all
}

// OnDeliver registers a callback for packets delivered to a switch-local
// host (the SELF port) — e.g. anycast receivers.
func (d *Deployment) OnDeliver(fn func(sw int, pkt *Packet)) {
	d.Net.OnSelf = fn
}

// ConfigBytes sums the modelled hardware footprint (flow + group entries)
// over all retained programs — the rule-space metric of the scalability
// claim, read off the declarative record rather than by walking switches.
func (d *Deployment) ConfigBytes() int {
	total := 0
	for _, p := range d.CP.Programs() {
		total += p.Bytes()
	}
	return total
}

// FlowEntries sums flow entries over all retained programs.
func (d *Deployment) FlowEntries() int {
	total := 0
	for _, p := range d.CP.Programs() {
		total += p.FlowCount()
	}
	return total
}

// GroupEntries sums group entries over all retained programs.
func (d *Deployment) GroupEntries() int {
	total := 0
	for _, p := range d.CP.Programs() {
		total += p.GroupCount()
	}
	return total
}

// StateEntries sums state-table transition entries over all retained
// programs — zero under the of13 backend.
func (d *Deployment) StateEntries() int {
	total := 0
	for _, p := range d.CP.Programs() {
		total += p.StateCount()
	}
	return total
}
