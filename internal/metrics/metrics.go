// Package metrics aggregates per-service observability counters for a
// SmartSouth deployment: how many rules a service installed, how many
// trigger packets the controller sent, how many in-band messages its
// traversals generated (the Table 2 columns of the paper), how many
// packet-ins came back, and the traversal wall-clock in simulation time.
//
// The registry is written from two directions — a Metered control-plane
// decorator attributes installs and trigger packets, and packet-in hooks
// attribute collect messages — and reads the third: in-band link crossings
// are counted once, by the network's lanes, and joined into the
// per-service view when a snapshot is taken. Services are identified by
// the slot range they occupy and by the EtherTypes of their tagged packets
// — the same two keys the data plane itself uses.
package metrics

import (
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
	// delivered or not — the "#msgs / size" columns of Table 2. Read from
	// the network's lane counters at snapshot time.
	InBandMsgs  int `json:"inBandMsgs"`
	InBandBytes int `json:"inBandBytes"`

	// FirstAt/LastAt bracket the service's activity in simulation time —
	// triggers, collects and in-band transmissions, the latter stamped by
	// the sending lane's clock; WallClock is their difference (0 if idle).
	FirstAt   network.Time `json:"firstAt"`
	LastAt    network.Time `json:"lastAt"`
	WallClock network.Time `json:"wallClock"`

	// RuleHits/GroupHits are the live data-plane counters of the rules the
	// service installed, read from its retained Programs at snapshot time.
	RuleHits  []openflow.RuleHit  `json:"ruleHits,omitempty"`
	GroupHits []openflow.GroupHit `json:"groupHits,omitempty"`

	// Uninstalled marks a service Deployment.Uninstall removed: the entry
	// stays as history with its counters as they were, and its EtherTypes
	// are free for the next registrant.
	Uninstalled bool `json:"uninstalled,omitempty"`

	active bool // FirstAt is meaningful only after the first activity
	// base[i] is the lanes' stat of EtherTypes[i] when the service
	// registered or was last Reset; in-band activity is what came after.
	base []network.InBandStat
}

func (m *ServiceMetrics) touch(at network.Time) {
	if !m.active {
		m.active = true
		m.FirstAt, m.LastAt = at, at
		return
	}
	if at < m.FirstAt {
		m.FirstAt = at
	}
	if at > m.LastAt {
		m.LastAt = at
	}
}

// Registry holds the per-service metrics of one deployment. Safe for
// concurrent use: remote deployments feed it from the simulator and the
// packet-in reader goroutines.
type Registry struct {
	mu       sync.Mutex
	net      *network.Network
	services []*ServiceMetrics
	byEth    map[uint16]*ServiceMetrics
}

// NewRegistry returns an empty registry over the network whose in-band
// counters it reports. Snapshot, Register, Release and Reset read (and
// re-arm) those counters, so they belong between runs.
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

// NoteInstall attributes a compiled program's installation cost to the
// service occupying the program's slot. Transient programs (runtime
// group-mods like a smart-counter reset) count as group mods only.
func (r *Registry) NoteInstall(p *openflow.Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bySlotLocked(p.Slot)
	if m == nil {
		return
	}
	m.InstallTxns += len(p.SwitchIDs())
	m.FlowMods += p.FlowCount()
	m.StateMods += p.StateCount()
	m.GroupMods += p.GroupCount()
}

// NotePacketOut attributes a controller trigger packet by EtherType.
func (r *Registry) NotePacketOut(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.PacketOuts++
		m.OutBandMsgs++
		m.OutBandBytes += bytes
		m.touch(at)
	}
}

// NoteHostInject attributes an in-band host trigger by EtherType.
func (r *Registry) NoteHostInject(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.HostInjects++
		m.touch(at)
	}
}

// NotePacketIn attributes a collect message (packet-in) by EtherType.
func (r *Registry) NotePacketIn(at network.Time, eth uint16, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byEth[eth]; m != nil {
		m.PacketIns++
		m.OutBandMsgs++
		m.OutBandBytes += bytes
		m.touch(at)
	}
}

// joinInBand adds to m what the lanes counted for its EtherTypes since
// their baselines. Every attempt counts, delivered or not, matching
// network.InBandMsgs.
func (r *Registry) joinInBand(m *ServiceMetrics) {
	for i, eth := range m.EtherTypes {
		s := r.net.InBandStat(eth)
		if s.Msgs == m.base[i].Msgs {
			continue
		}
		m.InBandMsgs += s.Msgs - m.base[i].Msgs
		m.InBandBytes += s.Bytes - m.base[i].Bytes
		m.touch(s.First)
		m.touch(s.Last)
	}
}

// Release marks the service covering slot uninstalled: its in-band
// counters freeze at what the lanes read now and its EtherTypes return to
// the pool, so whoever registers them next is credited from here on.
func (r *Registry) Release(slot int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bySlotLocked(slot)
	if m == nil || m.Uninstalled {
		return
	}
	r.joinInBand(m)
	m.Uninstalled = true
	for _, eth := range m.EtherTypes {
		delete(r.byEth, eth)
	}
}

// ByEth returns a snapshot of the installed service claiming the
// EtherType, or nil.
func (r *Registry) ByEth(eth uint16) *ServiceMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byEth[eth]
	if m == nil {
		return nil
	}
	c := r.view(m)
	return &c
}

// view copies m with the in-band counters joined in and TriggerPackets
// and WallClock computed.
func (r *Registry) view(m *ServiceMetrics) ServiceMetrics {
	c := *m
	if !c.Uninstalled {
		r.joinInBand(&c)
	}
	c.TriggerPackets = c.PacketOuts + c.HostInjects
	if c.active {
		c.WallClock = c.LastAt - c.FirstAt
	}
	c.RuleHits = append([]openflow.RuleHit(nil), m.RuleHits...)
	c.GroupHits = append([]openflow.GroupHit(nil), m.GroupHits...)
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

// ClearHits discards the attached hit counters of every service; call it
// before re-attaching a fresh read.
func (r *Registry) ClearHits() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.services {
		m.RuleHits, m.GroupHits = nil, nil
	}
}

// AttachHits appends rule/group hit counters to the service occupying
// slot. A multi-slot service accumulates the hits of all its programs;
// ClearHits first to replace rather than grow.
func (r *Registry) AttachHits(slot int, rules []openflow.RuleHit, groups []openflow.GroupHit) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.bySlotLocked(slot); m != nil {
		m.RuleHits = append(m.RuleHits, rules...)
		m.GroupHits = append(m.GroupHits, groups...)
	}
}

// Reset zeroes the runtime counters of every service (install counters
// survive, mirroring ResetRuntimeStats on the controller) and moves the
// in-band baselines of the installed ones to now.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.services {
		m.PacketOuts, m.HostInjects, m.PacketIns = 0, 0, 0
		m.OutBandMsgs, m.OutBandBytes = 0, 0
		m.InBandMsgs, m.InBandBytes = 0, 0
		m.FirstAt, m.LastAt, m.active = 0, 0, false
		m.RuleHits, m.GroupHits = nil, nil
		if !m.Uninstalled {
			for i, eth := range m.EtherTypes {
				m.base[i] = r.net.MarkInBand(eth)
			}
		}
	}
}
