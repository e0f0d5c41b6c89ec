// Package metrics is the per-service view of a SmartSouth deployment's
// counters: how many rules a service installed, how many trigger packets
// entered the data plane for it, how many in-band messages its
// traversals generated (the Table 2 columns of the paper), how many
// packet-ins came back, and the traversal wall-clock in simulation time.
//
// It counts nothing itself. The network counts every message once, by
// EtherType — link transmissions on its lanes, packet-outs and host
// injects where they enter the simulator, packet-ins where they leave it
// — and keeps the install ledger by slot; the registry holds each
// service's identity (name, slot range, claimed EtherTypes, history) and
// one baseline per EtherType, and joins the two when a snapshot is taken.
// Services are identified by the slot range they occupy and by the
// EtherTypes of their tagged packets — the same two keys the data plane
// itself uses.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
)

// ServiceMetrics is the aggregated view of one deployed service. All
// counters are monotonic since registration (or the last Reset).
type ServiceMetrics struct {
	Service    string   `json:"service"`
	Slot       int      `json:"slot"`
	Slots      int      `json:"slots"`
	EtherTypes []uint16 `json:"etherTypes,omitempty"`

	// Install-time cost: one InstallTxn per switch touched by a program
	// (the batched wire transaction), FlowMods/GroupMods the individual
	// rule messages inside them.
	InstallTxns int `json:"installTxns"`
	FlowMods    int `json:"flowMods"`
	StateMods   int `json:"stateMods,omitempty"`
	GroupMods   int `json:"groupMods"`

	// Runtime control-channel cost. TriggerPackets = PacketOuts +
	// HostInjects: every packet that entered the data plane to start a
	// traversal. PacketIns are the collect messages that came back.
	TriggerPackets int `json:"triggerPackets"`
	PacketOuts     int `json:"packetOuts"`
	HostInjects    int `json:"hostInjects"`
	PacketIns      int `json:"packetIns"`
	OutBandMsgs    int `json:"outBandMsgs"`
	OutBandBytes   int `json:"outBandBytes"`

	// In-band cost: link transmissions of the service's EtherTypes,
	// delivered or not — the "#msgs / size" columns of Table 2.
	InBandMsgs  int `json:"inBandMsgs"`
	InBandBytes int `json:"inBandBytes"`

	// FirstAt/LastAt bracket the service's activity in simulation time —
	// triggers, collects and in-band transmissions, the latter stamped by
	// the sending lane's clock; WallClock is their difference (0 if idle).
	FirstAt   network.Time `json:"firstAt"`
	LastAt    network.Time `json:"lastAt"`
	WallClock network.Time `json:"wallClock"`

	// RuleHits/GroupHits are the live data-plane counters of the rules the
	// service installed, read from its retained Programs by the
	// deployment's MetricsSnapshot; Registry.Snapshot leaves them empty.
	RuleHits  []openflow.RuleHit  `json:"ruleHits,omitempty"`
	GroupHits []openflow.GroupHit `json:"groupHits,omitempty"`

	// Uninstalled marks a service Deployment.Uninstall removed: the entry
	// stays as history with its counters as they were, and its EtherTypes
	// are free for the next registrant.
	Uninstalled bool `json:"uninstalled,omitempty"`

	// base[i] is the network's stat of EtherTypes[i] when the service
	// registered or was last Reset; the runtime columns are what came
	// after. Once Uninstalled, end[i] and cost are what the network read
	// at Release, and the entry reads them in place of the live counters.
	base, end []network.InBandStat
	cost      network.InstallCost
}

// Registry holds the identities of one deployment's services and reads
// their metrics off the network. Safe for concurrent use: Snapshot may
// run on any goroutine, at any time.
type Registry struct {
	mu       sync.Mutex
	net      *network.Network
	services []*ServiceMetrics
	byEth    map[uint16]*ServiceMetrics
}

// NewRegistry returns an empty registry over the network whose counters
// it reports. Snapshot reads what the network published at its last fold;
// Register and Reset re-arm the network's counters, so they belong
// between runs.
func NewRegistry(net *network.Network) *Registry {
	return &Registry{net: net, byEth: make(map[uint16]*ServiceMetrics)}
}

// Register creates the metrics entry for a service occupying slots
// [slot, slot+slots) and claiming the given EtherTypes for attribution.
// The first registrant of an EtherType wins (a monitor's inner snapshot
// does not steal a standalone snapshot's traffic). Returns the entry.
func (r *Registry) Register(service string, slot, slots int, eths ...uint16) *ServiceMetrics {
	if slots < 1 {
		slots = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &ServiceMetrics{Service: service, Slot: slot, Slots: slots}
	for _, eth := range eths {
		if _, taken := r.byEth[eth]; !taken {
			r.byEth[eth] = m
			m.EtherTypes = append(m.EtherTypes, eth)
			m.base = append(m.base, r.net.MarkInBand(eth))
		}
	}
	r.services = append(r.services, m)
	return m
}

// bySlotLocked returns the entry whose slot range covers slot, or nil.
// Later registrations win so a slot reused after Uninstall attributes to
// the new occupant.
func (r *Registry) bySlotLocked(slot int) *ServiceMetrics {
	for i := len(r.services) - 1; i >= 0; i-- {
		m := r.services[i]
		if slot >= m.Slot && slot < m.Slot+m.Slots {
			return m
		}
	}
	return nil
}

// read returns m's per-EtherType stats and install cost: the live
// counters, re-armed when mark is set, or what Release froze.
func (r *Registry) read(m *ServiceMetrics, mark bool) ([]network.InBandStat, network.InstallCost) {
	if m.Uninstalled {
		return m.end, m.cost
	}
	stats := make([]network.InBandStat, len(m.EtherTypes))
	for i, eth := range m.EtherTypes {
		if mark {
			stats[i] = r.net.MarkInBand(eth)
		} else {
			stats[i] = r.net.InBandStat(eth)
		}
	}
	return stats, r.net.InstallCost(m.Slot, m.Slots)
}

// Release marks the service covering slot uninstalled: its counters
// freeze at what the network reads now and its EtherTypes return to the
// pool, so whoever registers them next is credited from here on.
func (r *Registry) Release(slot int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bySlotLocked(slot)
	if m == nil || m.Uninstalled {
		return
	}
	m.end, m.cost = r.read(m, false)
	m.Uninstalled = true
	for _, eth := range m.EtherTypes {
		delete(r.byEth, eth)
	}
}

// view copies m with every counter read off the network (or off what
// Release froze) against m's baselines.
func (r *Registry) view(m *ServiceMetrics) ServiceMetrics {
	c := *m
	stats, cost := r.read(m, false)
	c.InstallTxns, c.FlowMods, c.StateMods, c.GroupMods = cost.Txns, cost.FlowMods, cost.StateMods, cost.GroupMods
	active := false
	for i, s := range stats {
		b := m.base[i]
		if s.Msgs == b.Msgs && s.PacketOuts == b.PacketOuts && s.HostInjects == b.HostInjects && s.PacketIns == b.PacketIns {
			continue
		}
		if !active || s.First < c.FirstAt {
			c.FirstAt = s.First
		}
		if !active || s.Last > c.LastAt {
			c.LastAt = s.Last
		}
		active = true
		c.InBandMsgs += s.Msgs - b.Msgs
		c.InBandBytes += s.Bytes - b.Bytes
		c.PacketOuts += s.PacketOuts - b.PacketOuts
		c.HostInjects += s.HostInjects - b.HostInjects
		c.PacketIns += s.PacketIns - b.PacketIns
		c.OutBandBytes += s.OutBandBytes - b.OutBandBytes
	}
	c.TriggerPackets = c.PacketOuts + c.HostInjects
	c.OutBandMsgs = c.PacketOuts + c.PacketIns
	c.WallClock = c.LastAt - c.FirstAt
	return c
}

// Snapshot returns a copy of every service's metrics, ordered by slot.
func (r *Registry) Snapshot() []ServiceMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ServiceMetrics, len(r.services))
	for i, m := range r.services {
		out[i] = r.view(m)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Slot < out[j].Slot })
	return out
}

// Reset restarts the runtime counters of every service: each entry's
// baselines move to what the network (or, once uninstalled, Release)
// reads now. Install counters survive, mirroring ResetRuntimeStats on
// the controller.
//
//simlint:testapi phase reset for facade users through Deployment.Metrics(); TestRegistryReset and the metrics join tests pin it
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.services {
		m.base, _ = r.read(m, true)
	}
}

// WriteProm renders the Table 2 counters of a snapshot as Prometheus
// text exposition: one smartsouth_service_*_total series per counter,
// labelled by service and slot.
func WriteProm(w io.Writer, ms []ServiceMetrics) {
	for _, s := range []struct {
		name, help string
		v          func(m *ServiceMetrics) int
	}{
		{"inband_msgs", "in-band link transmissions of the service's EtherTypes", func(m *ServiceMetrics) int { return m.InBandMsgs }},
		{"inband_bytes", "in-band bytes transmitted", func(m *ServiceMetrics) int { return m.InBandBytes }},
		{"trigger_packets", "packets that entered the data plane to start a traversal", func(m *ServiceMetrics) int { return m.TriggerPackets }},
		{"packet_ins", "collect messages (packet-ins) received", func(m *ServiceMetrics) int { return m.PacketIns }},
		{"flow_mods", "flow rules installed", func(m *ServiceMetrics) int { return m.FlowMods }},
	} {
		name := "smartsouth_service_" + s.name + "_total"
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, s.help, name)
		for i := range ms {
			fmt.Fprintf(w, "%s{service=%q,slot=\"%d\"} %d\n", name, ms[i].Service, ms[i].Slot, s.v(&ms[i]))
		}
	}
}
