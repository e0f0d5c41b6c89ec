package openflow

import "sort"

// FlowRule pairs a flow entry with the table it belongs to. It is the unit
// a compiled Program stores per switch; the entry is still *declarative*
// state — nothing is installed until the program is materialized onto a
// switch.
type FlowRule struct {
	Table int
	Entry *FlowEntry
}

// StateTableSpec is one state table's share of a switch program: the
// table ID, the flow-key fields and the transition entries. Key fields
// are a per-table property (every transition of a table shares the key),
// so they live on the spec rather than on entries.
type StateTableSpec struct {
	Table   int
	Key     []Field
	Entries []*StateEntry
}

// SwitchProgram is one switch's share of a Program: every flow rule,
// state-table transition and group entry the service wants on that
// switch. NumPorts records the switch's port count so the program can be
// statically checked (port ranges, watch ports) without touching a live
// switch.
type SwitchProgram struct {
	Switch   int
	NumPorts int
	Flows    []FlowRule
	States   []StateTableSpec
	Groups   []*GroupEntry
}

// StateSpec returns the spec for state table id, creating it if absent.
func (sp *SwitchProgram) StateSpec(table int) *StateTableSpec {
	for i := range sp.States {
		if sp.States[i].Table == table {
			return &sp.States[i]
		}
	}
	sp.States = append(sp.States, StateTableSpec{Table: table})
	return &sp.States[len(sp.States)-1]
}

// StateBytes sums the modelled hardware footprint of the transitions.
func (sp *SwitchProgram) StateBytes() int {
	n := 0
	for _, ts := range sp.States {
		for _, e := range ts.Entries {
			n += e.EntryBytes()
		}
	}
	return n
}

// FlowBytes sums the modelled hardware footprint of the flow rules.
func (sp *SwitchProgram) FlowBytes() int {
	n := 0
	for _, r := range sp.Flows {
		n += r.Entry.EntryBytes()
	}
	return n
}

// GroupBytes sums the modelled hardware footprint of the group entries.
func (sp *SwitchProgram) GroupBytes() int {
	n := 0
	for _, g := range sp.Groups {
		n += g.Bytes()
	}
	return n
}

// Materialize installs the switch program onto a live switch. Nothing is
// copied: a Program is read-only after compile, so the switch is handed
// the program's own entries and groups — as is every other switch, of
// this deployment or another, the program is installed on — and keeps the
// runtime state (hit counters, round-robin pointers, the fast-failover
// liveness cache) on its own side, in arrays sized by this transaction.
func (sp *SwitchProgram) Materialize(sw *Switch) {
	sw.AddGroups(sp.Groups)
	sw.AddFlows(sp.Flows)
	for _, ts := range sp.States {
		sw.AddStateEntries(ts.Table, ts.Key, ts.Entries)
	}
}

// Program is the declarative intermediate representation every SmartSouth
// service compiles to: a per-switch set of flow rules and group entries,
// tagged with the service name and the slot it occupies. Separating this
// from installation lets the pipeline verify a configuration before any
// rule is live, batch the wire installation per switch, and account for
// rule space (claim C3) without re-walking switches.
type Program struct {
	// Service is the service label, e.g. "snapshot" or "blackhole-ctr".
	Service string
	// Slot is the table/group slot the program occupies. Slots spans
	// multi-slot services (chaincast); single-slot programs have Slots=1.
	Slot  int
	Slots int
	// TagBytes is the tag budget the program's layout assumed; the static
	// checker uses it to detect out-of-bounds tag fields.
	TagBytes int
	// Transient marks modify-style programs (e.g. a smart-counter reset
	// re-sends an existing group). Control planes apply them but do not
	// retain them for accounting — the state they touch is already owned
	// by an installed program.
	Transient bool

	switches map[int]*SwitchProgram
}

// NewProgram returns an empty program for a service occupying one slot.
func NewProgram(service string, slot int) *Program {
	return &Program{
		Service:  service,
		Slot:     slot,
		Slots:    1,
		switches: make(map[int]*SwitchProgram),
	}
}

// CoversSlot reports whether the program occupies the given slot.
func (p *Program) CoversSlot(slot int) bool {
	return slot >= p.Slot && slot < p.Slot+p.Slots
}

// Ensure returns the switch program for sw, creating it with the given
// port count if absent.
func (p *Program) Ensure(sw, numPorts int) *SwitchProgram {
	sp, ok := p.switches[sw]
	if !ok {
		sp = &SwitchProgram{Switch: sw, NumPorts: numPorts}
		p.switches[sw] = sp
	}
	return sp
}

// At returns the switch program for sw, or nil if the program has no rules
// there.
func (p *Program) At(sw int) *SwitchProgram { return p.switches[sw] }

// AddFlow appends a flow rule for switch sw. The switch program must have
// been created with Ensure (so its port count is known).
func (p *Program) AddFlow(sw, table int, e *FlowEntry) {
	sp := p.switches[sw]
	if sp == nil {
		panic("openflow: Program.AddFlow before Ensure")
	}
	sp.Flows = append(sp.Flows, FlowRule{Table: table, Entry: e})
}

// AddGroup appends a group entry for switch sw.
func (p *Program) AddGroup(sw int, g *GroupEntry) {
	sp := p.switches[sw]
	if sp == nil {
		panic("openflow: Program.AddGroup before Ensure")
	}
	sp.Groups = append(sp.Groups, g)
}

// AddState appends a transition entry to state table on switch sw.
func (p *Program) AddState(sw, table int, e *StateEntry) {
	sp := p.switches[sw]
	if sp == nil {
		panic("openflow: Program.AddState before Ensure")
	}
	ts := sp.StateSpec(table)
	ts.Entries = append(ts.Entries, e)
}

// SetStateKey declares the flow-key fields of state table on switch sw.
// Programs that omit it get a keyless table: one global state per
// (switch, table).
func (p *Program) SetStateKey(sw, table int, key []Field) {
	sp := p.switches[sw]
	if sp == nil {
		panic("openflow: Program.SetStateKey before Ensure")
	}
	sp.StateSpec(table).Key = key
}

// SwitchIDs returns the switches the program touches, ascending.
func (p *Program) SwitchIDs() []int {
	ids := make([]int, 0, len(p.switches))
	for id := range p.switches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// FlowCount returns the total number of flow rules across all switches.
func (p *Program) FlowCount() int {
	n := 0
	for _, sp := range p.switches {
		n += len(sp.Flows)
	}
	return n
}

// GroupCount returns the total number of group entries across all
// switches.
func (p *Program) GroupCount() int {
	n := 0
	for _, sp := range p.switches {
		n += len(sp.Groups)
	}
	return n
}

// StateCount returns the total number of state-table transition entries
// across all switches.
func (p *Program) StateCount() int {
	n := 0
	for _, sp := range p.switches {
		for _, ts := range sp.States {
			n += len(ts.Entries)
		}
	}
	return n
}

// StateTables returns the IDs of every state table the program populates
// on any switch, ascending.
func (p *Program) StateTables() []int {
	seen := map[int]bool{}
	for _, sp := range p.switches {
		for _, ts := range sp.States {
			seen[ts.Table] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// RuleHit is the live hit counter of one flow rule a program installed:
// the OF 1.3 per-entry packet counter, read back per retained Program so
// per-service rule activity is measured rather than inferred.
type RuleHit struct {
	Switch   int    `json:"switch"`
	Table    int    `json:"table"`
	Priority int    `json:"priority"`
	Cookie   string `json:"cookie"`
	Packets  uint64 `json:"packets"`
}

// GroupHit is the live execution counter of one group bucket a program
// installed (ofp_bucket_counter).
type GroupHit struct {
	Switch  int    `json:"switch"`
	Group   uint32 `json:"group"`
	Bucket  int    `json:"bucket"`
	Packets uint64 `json:"packets"`
}

// HitCounters reads the live rule-hit and group-bucket counters of every
// rule this program installed, via the lookup function (switch id -> live
// switch). Rules are correlated by (table, CookieHash(cookie)) and groups
// by ID — exactly what an OFPMP_FLOW / OFPMP_GROUP multipart request
// returns in a real deployment, so rules installed over the wire are
// found too — and each live table is indexed once, not scanned per rule. Rules whose live entry is gone (e.g. uninstalled) are skipped;
// zero-hit rules and buckets are included.
func (p *Program) HitCounters(lookup func(sw int) *Switch) ([]RuleHit, []GroupHit) {
	var rules []RuleHit
	var groups []GroupHit
	for _, id := range p.SwitchIDs() {
		sw := lookup(id)
		if sw == nil {
			continue
		}
		sp := p.switches[id]
		report := func(table int, cookie string, idx map[uint64]liveRule) {
			if live, ok := idx[CookieHash(cookie)]; ok {
				rules = append(rules, RuleHit{
					Switch: id, Table: table, Priority: live.priority, Cookie: cookie, Packets: live.hits,
				})
			}
		}
		flowIdx := map[int]map[uint64]liveRule{} // per live flow table
		for _, fr := range sp.Flows {
			idx, ok := flowIdx[fr.Table]
			if t := sw.tables[fr.Table]; !ok && t != nil {
				idx = t.byCookie()
				flowIdx[fr.Table] = idx
			}
			report(fr.Table, fr.Entry.Cookie, idx)
		}
		for _, ts := range sp.States {
			if t := sw.stateTables[ts.Table]; t != nil {
				idx := t.byCookie()
				for _, e := range ts.Entries {
					report(ts.Table, e.Cookie, idx)
				}
			}
		}
		for _, g := range sp.Groups {
			if i, found := sw.groupPos(g.ID); found {
				for b, n := range sw.gslots[i].hits {
					groups = append(groups, GroupHit{Switch: id, Group: g.ID, Bucket: b, Packets: n})
				}
			}
		}
	}
	return rules, groups
}

// Bytes estimates the total hardware footprint of the program using the
// same per-entry model as Switch.ConfigBytes, so rule-space numbers can be
// read off the compile artifact.
func (p *Program) Bytes() int {
	n := 0
	for _, sp := range p.switches {
		n += sp.FlowBytes() + sp.StateBytes() + sp.GroupBytes()
	}
	return n
}
