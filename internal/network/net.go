package network

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"smartsouth/internal/openflow"
	"smartsouth/internal/telemetry"
	"smartsouth/internal/topo"
)

// Hop mirrors topo.Hop for recorded in-band traversals.
type Hop = topo.Hop

// Options configures a Network.
type Options struct {
	// LinkDelay is the one-way latency of every link (default 1µs).
	LinkDelay Time
	// Seed seeds the loss process of lossy links.
	Seed int64
	// MaxSteps bounds events per Run (see Sim.MaxSteps).
	MaxSteps int
	// NoTelemetry disables the always-on instrumentation (per-event
	// counters, latency histograms, flight recorder) for this network.
	// The telemetry-off arm of the overhead benchmark uses it; everything
	// else should leave it false.
	NoTelemetry bool
	// FlightCap sizes the flight-recorder ring: 0 selects the default
	// capacity, negative disables the recorder while keeping the rest of
	// the telemetry on.
	FlightCap int
	// Shards partitions the topology across this many shards, each owning
	// a subset of switches with its own event heap, execution scratch,
	// in-band counters and flight ring, synchronized by conservative time
	// windows (shard.go). <= 1 (the default) keeps the classic
	// single-loop simulator, whose behaviour is byte-identical to
	// pre-shard builds; > 1 is deterministic for any fixed shard count
	// but may order simultaneous independent events differently than the
	// single loop. Clamped to the node count.
	Shards int
	// Timeline, when positive, enables the causal traversal tracer and
	// deepens each lane's flight ring to at least this many records:
	// every packet injected via Inject gets a trace id, and the exec
	// record of every pipeline execution it or any of its descendants
	// flows through carries its span, whose Parent edge reconstructs the
	// traversal tree (DrainSpans reads them, internal/trace builds the
	// trees, internal/dump renders them). The flight dump still emits
	// only the last FlightCap records. Independent of NoTelemetry so the
	// overhead benchmark can isolate the tracer's cost. Zero (the
	// default) records no spans.
	Timeline int
}

// ethCounter is one interned per-EtherType accounting slot. The hot path
// bumps msgs/bytes by index; the public map views are rebuilt on demand.
// The control-channel counts — packet-outs and host injects where they
// enter the simulator, packet-ins where they leave it, and the bytes of
// packet-outs and packet-ins — are bumped off the hop path. first/last
// are the times of the earliest event since MarkInBand re-armed first
// (negative: none yet) and of the latest one: a transmission by its lane's
// clock, an injection by its activation time, a packet-in by the control
// lane's clock. pastMsgs/pastBytes keep what ResetAccounting cleared.
type ethCounter struct {
	eth          uint16
	msgs         int
	bytes        int
	first, last  Time
	pastMsgs     int
	pastBytes    int
	packetOuts   int
	hostInjects  int
	packetIns    int
	outBandBytes int
}

// Entry says how a packet entered the data plane from outside it.
type Entry uint8

const (
	// PacketOut is a controller message (OFPT_PACKET_OUT).
	PacketOut Entry = iota
	// HostInject is traffic from a host attached to the switch.
	HostInject
)

// InstallCost is what installing programs into one slot range cost: one
// transaction per switch a program touched (the batched wire
// transaction), and the flow, state and group messages inside them.
type InstallCost struct {
	Txns, FlowMods, StateMods, GroupMods int
}

// Network instantiates one openflow.Switch per graph node, one Link per
// edge, and moves packets between them under the discrete-event clock.
//
// Attachment points:
//   - OnPacketIn receives every packet a switch sends to PortController
//     (the out-of-band control channel; package controller counts these).
//   - OnSelf receives every packet delivered to PortSelf (the switch-local
//     host, e.g. an anycast receiver).
//
// Hop observers (ObserveHops) see every attempted link crossing, delivered
// or not — the ground-truth trace tests compare against the golden model.
//
// Packet ownership: packets passed to OnPacketIn and OnSelf belong to the
// callback and may be retained. Packets seen by hop observers are only
// valid for the duration of the callback — the simulator recycles them
// once processed.
type Network struct {
	Sim   *Sim
	Graph *topo.Graph

	OnPacketIn func(sw int, pkt *openflow.Packet)
	OnSelf     func(sw int, pkt *openflow.Packet)
	// OnPortChange observes port liveness flips — the information a real
	// switch reports with OFPT_PORT_STATUS.
	OnPortChange func(sw, port int, up bool)

	switches []*openflow.Switch
	links    []*Link // indexed like Graph.Edges()
	// portLinks[sw][port] is the link attached to (sw, port), nil for
	// unconnected ports — a dense replacement for the old (switch, port)
	// map, probed once per transmission.
	portLinks [][]*Link
	delay     Time
	execObs   []ExecObserver
	hopObs    []HopObserver

	// Event loops. A single-loop network has exactly one lane (ctl); a
	// sharded one has one worker lane per shard plus the control lane
	// (lanes[len-1] == ctl, owning no switches). Sim aliases the control
	// lane's loop, so Sim.Now()/Sim.At keep their classic meaning.
	// shardOf maps each switch to its owning worker lane; lookahead is
	// the minimum cross-shard link delay — the conservative window width.
	// obsMu serializes the observer fan-out (hop/exec callbacks) across
	// worker lanes; single-loop runs never take it.
	lanes     []*lane
	ctl       *lane
	multi     bool
	shardOf   []int
	lookahead Time
	obsMu     sync.Mutex
	mergeBuf  []xev

	// Per-EtherType tag decoders (telemetry.go), shared read-only by all
	// lanes; each lane keeps its own flight ring and decoder cache. The
	// prev* fields remember the switches' cumulative scan stats at the
	// last flush so Run can publish deltas.
	tagDec []*TagDecoder

	prevMatcher    uint64
	prevFallback   uint64
	prevScanned    uint64
	prevCommits    uint64
	prevFlightRecs uint64

	// mu guards the network's read side. tel, the telemetry totals, and
	// inband, a copy of every lane's per-EtherType counters (InBandStat),
	// are written only at folds (the end of a Run, Tally, MarkInBand), so
	// readers on any goroutine never touch lane state.
	mu     sync.Mutex
	tel    telemetry.Counters
	inband [][]ethCounter
	// installs is the install ledger by program slot (RecordInstall),
	// written by the control planes under mu.
	installs map[int]InstallCost

	// traceSeq hands out traversal ids when timeline tracing is on. Only
	// Inject (a barrier-context call) bumps it, so no atomics.
	traceSeq uint32

	// spanCursor holds per-lane ring totals at the last DrainSpans call;
	// non-nil exactly when timeline tracing is on.
	spanCursor []uint64
}

// New builds a network for the graph.
//
//simlint:barrier construction: lanes are not running yet
func New(g *topo.Graph, opts Options) *Network {
	if opts.LinkDelay == 0 {
		opts.LinkDelay = 1000 // 1µs
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if nn := g.NumNodes(); nn > 0 && shards > nn {
		shards = nn
	}
	n := &Network{
		Graph:    g,
		delay:    opts.LinkDelay,
		multi:    shards > 1,
		installs: make(map[int]InstallCost),
	}
	nlanes := shards
	if n.multi {
		nlanes++ // dedicated control lane on top of the worker lanes
	}
	n.lanes = make([]*lane, nlanes)
	for i := range n.lanes {
		l := &lane{
			net:    n,
			id:     i,
			worker: n.multi && i < shards,
			xc:     openflow.NewExecContext(),
			ethIdx: make(map[uint16]int),
		}
		l.sim.lane = l
		if l.worker {
			l.out = make([][]xev, shards)
		}
		n.lanes[i] = l
	}
	n.ctl = n.lanes[nlanes-1]
	n.inband = make([][]ethCounter, nlanes)
	n.Sim = &n.ctl.sim
	n.Sim.MaxSteps = opts.MaxSteps
	flightCap := opts.FlightCap
	if opts.NoTelemetry {
		flightCap = -1
	}
	if opts.Timeline > 0 {
		// Deliberately independent of NoTelemetry: the tracer's own
		// overhead must be measurable with everything else off.
		n.spanCursor = make([]uint64, nlanes)
	}
	for _, l := range n.lanes {
		if !opts.NoTelemetry {
			l.sim.stats = &telemetry.Counters{}
		}
		if flightCap >= 0 || opts.Timeline > 0 {
			l.flight = telemetry.NewFlight(flightCap, opts.Timeline)
		}
	}
	telemetry.NoteShards(shards)
	rng := rand.New(rand.NewSource(opts.Seed))
	n.switches = make([]*openflow.Switch, g.NumNodes())
	n.portLinks = make([][]*Link, g.NumNodes())
	for i := range n.switches {
		n.switches[i] = openflow.NewSwitch(i, g.Degree(i))
		n.portLinks[i] = make([]*Link, g.Degree(i)+1)
	}
	for _, e := range g.Edges() {
		l := &Link{A: e.U, B: e.V, PortA: e.PU, PortB: e.PV, Delay: opts.LinkDelay,
			rngAB: lossRNG{seed: rng.Int63()},
			rngBA: lossRNG{seed: rng.Int63()}}
		n.links = append(n.links, l)
		n.portLinks[e.U][e.PU] = l
		n.portLinks[e.V][e.PV] = l
	}
	if n.multi {
		n.shardOf = topo.Partition(g, shards)
		n.lookahead = maxTime
		for _, l := range n.links {
			if n.shardOf[l.A] != n.shardOf[l.B] && l.Delay < n.lookahead {
				n.lookahead = l.Delay
			}
		}
		if n.lookahead < 1 {
			n.lookahead = 1 // zero-delay links would make windows empty
		}
	}
	return n
}

// Shards returns the number of worker shards the simulation runs on (1
// for the classic single-loop simulator).
func (n *Network) Shards() int {
	if !n.multi {
		return 1
	}
	return len(n.lanes) - 1
}

// ExecObserver observes one pipeline execution: the switch that ran it,
// the ingress port, the packet as it arrived (pre-execution state), and
// the execution result, whose Steps/GroupSteps record the matched rules
// and group-bucket choices when structured recording is on.
type ExecObserver func(sw, inPort int, pkt *openflow.Packet, res *openflow.Result)

// HopObserver observes one attempted link crossing, delivered or not.
type HopObserver func(hop Hop, pkt *openflow.Packet, delivered bool)

// ObserveExec registers an execution observer and turns on structured
// step recording on every switch. Unlike the OnPacketIn/OnSelf fields,
// observers are additive: several subsystems (trace, metrics, tests) can
// watch the same network without clobbering each other.
func (n *Network) ObserveExec(fn ExecObserver) {
	n.execObs = append(n.execObs, fn)
	for _, sw := range n.switches {
		sw.Record = true
	}
}

// ObserveHops registers a hop observer; like exec observers, they are
// additive and fire in registration order.
func (n *Network) ObserveHops(fn HopObserver) {
	n.hopObs = append(n.hopObs, fn)
}

// Observers returns how many hop and exec observers are registered.
func (n *Network) Observers() (hops, execs int) { return len(n.hopObs), len(n.execObs) }

// Switch returns the switch for node id.
func (n *Network) Switch(id int) *openflow.Switch { return n.switches[id] }

// NowAt returns the clock of the lane that owns switch sw. Inside a hop or
// exec observer that is the time of the observed event; Sim.Now(), the
// control lane's clock, stands still while a sharded window runs.
func (n *Network) NowAt(sw int) Time { return n.laneFor(sw).now() }

// NumSwitches returns the number of switches.
func (n *Network) NumSwitches() int { return len(n.switches) }

// linkAt returns the link attached to (sw, port), or nil.
func (n *Network) linkAt(sw, port int) *Link {
	pl := n.portLinks[sw]
	if port < 1 || port >= len(pl) {
		return nil
	}
	return pl[port]
}

// LinkBetween returns the link connecting u and v, or nil.
func (n *Network) LinkBetween(u, v int) *Link {
	p := n.Graph.PortTo(u, v)
	if p == 0 {
		return nil
	}
	return n.linkAt(u, p)
}

// Links returns all links, indexed like Graph.Edges().
func (n *Network) Links() []*Link { return n.links }

// refreshLiveness recomputes the port liveness of both link endpoints.
func (n *Network) refreshLiveness(l *Link) {
	up := l.liveFor()
	n.setPortLive(l.A, l.PortA, up)
	n.setPortLive(l.B, l.PortB, up)
}

func (n *Network) setPortLive(sw, port int, up bool) {
	if n.switches[sw].PortLive(port) == up {
		return
	}
	n.switches[sw].SetPortLive(port, up)
	if n.OnPortChange != nil {
		n.OnPortChange(sw, port, up)
	}
}

// SetLinkDown takes the u-v link down (both directions, visible to
// liveness) or back up.
func (n *Network) SetLinkDown(u, v int, down bool) error {
	l := n.LinkBetween(u, v)
	if l == nil {
		return fmt.Errorf("network: no link %d-%d", u, v)
	}
	mode := LinkUp
	if down {
		mode = LinkDown
	}
	l.modeAB, l.modeBA = mode, mode
	n.refreshLiveness(l)
	return nil
}

// SetBlackhole makes the u->v direction (and, if bidirectional, also
// v->u) silently drop everything while liveness stays up.
func (n *Network) SetBlackhole(u, v int, bidirectional bool) error {
	l := n.LinkBetween(u, v)
	if l == nil {
		return fmt.Errorf("network: no link %d-%d", u, v)
	}
	if u == l.A {
		l.modeAB = LinkBlackhole
		if bidirectional {
			l.modeBA = LinkBlackhole
		}
	} else {
		l.modeBA = LinkBlackhole
		if bidirectional {
			l.modeAB = LinkBlackhole
		}
	}
	n.refreshLiveness(l)
	return nil
}

// ScheduleLinkDown schedules a link failure (or repair) at simulation
// time at — the tool for studying failures *during* a traversal, which
// the paper's model excludes and delegates to controller-side retries.
func (n *Network) ScheduleLinkDown(u, v int, down bool, at Time) error {
	if n.LinkBetween(u, v) == nil {
		return fmt.Errorf("network: no link %d-%d", u, v)
	}
	n.Sim.At(at, func() { _ = n.SetLinkDown(u, v, down) })
	return nil
}

// SetLoss makes both directions of the u-v link drop packets independently
// with probability p.
func (n *Network) SetLoss(u, v int, p float64) error {
	l := n.LinkBetween(u, v)
	if l == nil {
		return fmt.Errorf("network: no link %d-%d", u, v)
	}
	l.modeAB, l.modeBA = LinkLossy, LinkLossy
	l.lossAB, l.lossBA = p, p
	n.refreshLiveness(l)
	return nil
}

// Inject schedules pkt to be processed by switch sw as if it arrived on
// inPort at time t. Use openflow.PortController as inPort for packet-outs.
// via says how the packet entered; it is counted under its EtherType
// (InBandStat). The caller keeps ownership of pkt: it is cloned at call
// time. On a sharded network the event lands on the heap of the shard
// owning sw; Inject must only be called between runs or from control-lane
// callbacks (never from inside a window).
//
//simlint:barrier called between runs or before Run; no worker window is active
func (n *Network) Inject(sw int, inPort int, pkt *openflow.Packet, t Time, via Entry) {
	l := n.laneFor(sw)
	l.countEntry(via, pkt, t)
	if st := l.sim.stats; st != nil {
		st.PoolGets++
	}
	q := pkt.ClonePooled()
	if n.spanCursor != nil && q.TraceID == 0 {
		// Every injection roots a new traversal trace (unless the caller
		// pre-assigned one, e.g. a resubmitted packet). SpanID 0 marks the
		// first execution's span as the trace root.
		n.traceSeq++
		q.TraceID = n.traceSeq
		q.SpanID = 0
	}
	l.sim.schedule(t, event{kind: evProcess, sw: sw, port: inPort, pkt: q})
}

// InjectActions schedules an action-list packet-out at switch sw (an
// OFPT_PACKET_OUT that bypasses the tables), e.g. the LLDP probes of the
// baseline discovery app. It counts as a packet-out. Like Inject, it must
// only be called between runs or from control-lane callbacks.
//
//simlint:barrier called between runs or from control-lane callbacks; no worker window is active
func (n *Network) InjectActions(sw int, actions []openflow.Action, pkt *openflow.Packet, t Time) {
	n.ctl.countEntry(PacketOut, pkt, t)
	p := pkt.ClonePooled()
	n.Sim.At(t, func() {
		res := n.switches[sw].Execute(p, actions)
		if st := n.Sim.stats; st != nil {
			// The clone above, Execute's internal clone, and one per
			// emission — minus the emission that took the internal clone
			// itself when Execute reports it stolen.
			gets := 2 + uint64(len(res.Emissions))
			if res.StoleInput {
				gets--
			}
			st.PoolGets += gets
		}
		for _, ob := range n.execObs {
			ob(sw, openflow.PortController, p, &res)
		}
		n.ctl.dispatch(sw, &res)
		p.Release()
	})
}

// DrainSpans appends to dst the spans — the exec records of traced
// packets — the lanes' flight rings took since the previous call (all
// retained ones on the first), interleaved across lanes into
// simulation-time order with ties keeping lane order — O(new records)
// per call instead of O(ring capacity), so a caller can harvest the
// timeline after every run without paying for a full re-merge. Records a
// lane ring evicted between drains are lost. Returns dst unchanged when
// timeline tracing is off.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) DrainSpans(dst []telemetry.SpanRecord) []telemetry.SpanRecord {
	if n.spanCursor == nil {
		return dst
	}
	base := len(dst)
	for i, l := range n.lanes {
		dst = l.flight.AppendSpans(dst, n.spanCursor[i])
		n.spanCursor[i] = l.flight.Total()
	}
	// Each lane's segment is already time-ordered (lane-local sim time is
	// monotone), so the concatenation only needs sorting when several
	// lanes interleave — checking first keeps the common single-lane
	// drain free of sort.SliceStable's reflection cost. A tie across the
	// boundary counts as ordered: both paths keep lane order on ties.
	fresh := dst[base:]
	for i := 1; i < len(fresh); i++ {
		if fresh[i].At < fresh[i-1].At {
			sort.SliceStable(fresh, func(i, j int) bool { return fresh[i].At < fresh[j].At })
			break
		}
	}
	return dst
}

// InBandMsgs returns the per-EtherType link-transmission counts as a map,
// rebuilt from the interned per-lane counters on every call. Use
// InBandCount for a single EtherType on a hot path.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) InBandMsgs() map[uint16]int {
	out := make(map[uint16]int)
	for _, l := range n.lanes {
		for _, c := range l.counters {
			if c.msgs > 0 {
				out[c.eth] += c.msgs
			}
		}
	}
	return out
}

// InBandBytes returns the per-EtherType transmitted byte counts as a map,
// rebuilt on every call. Use InBandSize for a single EtherType.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) InBandBytes() map[uint16]int {
	out := make(map[uint16]int)
	for _, l := range n.lanes {
		for _, c := range l.counters {
			if c.msgs > 0 {
				out[c.eth] += c.bytes
			}
		}
	}
	return out
}

// InBandCount returns the transmission count of one EtherType.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) InBandCount(eth uint16) int {
	total := 0
	for _, l := range n.lanes {
		if idx, ok := l.ethIdx[eth]; ok {
			total += l.counters[idx].msgs
		}
	}
	return total
}

// InBandSize returns the transmitted bytes of one EtherType.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) InBandSize(eth uint16) int {
	total := 0
	for _, l := range n.lanes {
		if idx, ok := l.ethIdx[eth]; ok {
			total += l.counters[idx].bytes
		}
	}
	return total
}

// TotalInBand sums message counts across all EtherTypes.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) TotalInBand() int {
	total := 0
	for _, l := range n.lanes {
		for _, c := range l.counters {
			total += c.msgs
		}
	}
	return total
}

// InBandStat is what the network recorded for one EtherType since it was
// built: link transmissions and their bytes (ResetAccounting does not
// rewind these), packet-outs and host injects entering the data plane,
// packet-ins leaving it, and the bytes of the packet-outs and packet-ins.
// First and Last are the times of the first event since MarkInBand and of
// the last one; First is negative when there was none.
type InBandStat struct {
	Msgs, Bytes                        int
	PacketOuts, HostInjects, PacketIns int
	OutBandBytes                       int
	First, Last                        Time
}

// InBandStat sums one EtherType's counters over the lanes, as of the
// last fold. Safe from any goroutine, at any time.
func (n *Network) InBandStat(eth uint16) InBandStat {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inBandStatLocked(eth)
}

func (n *Network) inBandStatLocked(eth uint16) InBandStat {
	s := InBandStat{First: -1}
	for _, cs := range n.inband {
		i := slices.IndexFunc(cs, func(c ethCounter) bool { return c.eth == eth })
		if i < 0 {
			continue
		}
		c := &cs[i]
		s.Msgs += c.pastMsgs + c.msgs
		s.Bytes += c.pastBytes + c.bytes
		s.PacketOuts += c.packetOuts
		s.HostInjects += c.hostInjects
		s.PacketIns += c.packetIns
		s.OutBandBytes += c.outBandBytes
		if c.first >= 0 {
			if s.First < 0 || c.first < s.First {
				s.First = c.first
			}
			if c.last > s.Last {
				s.Last = c.last
			}
		}
	}
	return s
}

// publishInBand copies every lane's per-EtherType counters into the
// network's read side. The caller holds n.mu.
//
//simlint:barrier post-run aggregation across parked lanes
func (n *Network) publishInBand() {
	for i, l := range n.lanes {
		n.inband[i] = append(n.inband[i][:0], l.counters...)
	}
}

// MarkInBand starts an observation period for eth: it returns the totals
// so far, injections since the last fold included, for the reader to
// subtract, and re-arms First on every lane.
//
//simlint:barrier called between runs; no worker window is active
func (n *Network) MarkInBand(eth uint16) InBandStat {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.publishInBand()
	s := n.inBandStatLocked(eth)
	for _, l := range n.lanes {
		if idx, ok := l.ethIdx[eth]; ok {
			l.counters[idx].first = -1
		}
	}
	n.publishInBand()
	return s
}

// RecordInstall adds program p's cost to the install ledger of its slot.
// The control planes call it once for every program they install,
// transient ones included. Safe from any goroutine.
func (n *Network) RecordInstall(p *openflow.Program) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.installs[p.Slot]
	c.Txns += len(p.SwitchIDs())
	c.FlowMods += p.FlowCount()
	c.StateMods += p.StateCount()
	c.GroupMods += p.GroupCount()
	n.installs[p.Slot] = c
}

// InstallCost sums the install ledger over slots [slot, slot+slots).
// Safe from any goroutine, at any time.
func (n *Network) InstallCost(slot, slots int) InstallCost {
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum InstallCost
	for s := slot; s < slot+slots; s++ {
		c := n.installs[s]
		sum.Txns += c.Txns
		sum.FlowMods += c.FlowMods
		sum.StateMods += c.StateMods
		sum.GroupMods += c.GroupMods
	}
	return sum
}

// ResetAccounting clears the in-band counters (link DirStats included) so
// an experiment can measure a single phase. The EtherType intern tables
// survive — only the counts reset.
//
//simlint:barrier called between runs; no worker window is active
func (n *Network) ResetAccounting() {
	for _, l := range n.lanes {
		for i := range l.counters {
			c := &l.counters[i]
			c.pastMsgs, c.pastBytes = c.pastMsgs+c.msgs, c.pastBytes+c.bytes
			c.msgs, c.bytes = 0, 0
		}
	}
	for _, l := range n.links {
		l.StatsAB = DirStats{}
		l.StatsBA = DirStats{}
	}
}
