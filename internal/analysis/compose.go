package analysis

import (
	"fmt"
	"sort"
	"strings"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// compRule is one flow rule in the composed per-switch view, with the
// program it came from (its provenance) and a hit mark set by the
// reachability walk.
type compRule struct {
	prog  *openflow.Program
	table int
	entry *openflow.FlowEntry
	hit   bool
}

// compGroup is one group entry with its owning program.
type compGroup struct {
	prog *openflow.Program
	g    *openflow.GroupEntry
}

// compState is one state-table transition entry in the composed view,
// with provenance and a hit mark like compRule.
type compState struct {
	prog  *openflow.Program
	entry *openflow.StateEntry
	hit   bool
}

// compStateTable is the composed view of one stateful stage. A state
// table is owned by exactly one program (cross-program merges are a
// KindStateClash error), so prog is the owner and key its flow key.
type compStateTable struct {
	prog    *openflow.Program
	key     []openflow.Field
	entries []*compState // priority desc, program order on ties
}

// compSwitch is the composition of every program's share for one
// switch: what the switch's tables, state tables and group table would
// hold after all programs are installed.
type compSwitch struct {
	id       int
	numPorts int
	tables   map[int][]*compRule // priority desc, program order on ties
	states   map[int]*compStateTable
	groups   map[uint32]*compGroup
}

// analyzer holds the composed deployment and accumulates findings.
type analyzer struct {
	progs []*openflow.Program
	g     *topo.Graph
	opts  Options

	switches map[int]*compSwitch
	ethOwner map[uint16]*openflow.Program // dispatch EtherType -> first owning program

	findings []Finding

	// reachability walk state
	color     map[string]int8 // 0 unvisited, 1 on stack, 2 done
	stack     []hop
	states    int
	budgetHit bool
}

// hop is one frame of the reachability walk, for loop diagnostics.
type hop struct {
	key string
	sw  int
	in  int
}

func newAnalyzer(progs []*openflow.Program, g *topo.Graph, opts Options) *analyzer {
	a := &analyzer{
		progs:    progs,
		g:        g,
		opts:     opts,
		switches: make(map[int]*compSwitch),
		ethOwner: make(map[uint16]*openflow.Program),
		color:    make(map[string]int8),
	}
	a.compose()
	return a
}

// compose merges every program's per-switch share, detecting group-ID
// clashes as it goes.
func (a *analyzer) compose() {
	for _, p := range a.progs {
		for _, id := range p.SwitchIDs() {
			sp := p.At(id)
			cs := a.switches[id]
			if cs == nil {
				cs = &compSwitch{
					id:       id,
					numPorts: sp.NumPorts,
					tables:   make(map[int][]*compRule),
					states:   make(map[int]*compStateTable),
					groups:   make(map[uint32]*compGroup),
				}
				a.switches[id] = cs
			}
			for i := range sp.Flows {
				fr := &sp.Flows[i]
				cs.tables[fr.Table] = append(cs.tables[fr.Table],
					&compRule{prog: p, table: fr.Table, entry: fr.Entry})
				if fr.Table == 0 && fr.Entry.Match.EthType != openflow.AnyEthType {
					et := uint16(fr.Entry.Match.EthType)
					if _, ok := a.ethOwner[et]; !ok {
						a.ethOwner[et] = p
					}
				}
			}
			for si := range sp.States {
				ts := &sp.States[si]
				cst := cs.states[ts.Table]
				if cst != nil && cst.prog != p {
					a.add(Finding{
						Kind: KindStateClash, Severity: verify.Err,
						Service: p.Service, Slot: p.Slot, Switch: id, Table: ts.Table,
						Detail: fmt.Sprintf("state table %d already installed by service %q: one EFSM per table", ts.Table, cst.prog.Service),
					})
					continue
				}
				if cst == nil {
					cst = &compStateTable{prog: p, key: ts.Key}
					cs.states[ts.Table] = cst
				}
				for _, e := range ts.Entries {
					cst.entries = append(cst.entries, &compState{prog: p, entry: e})
				}
			}
			for _, g := range sp.Groups {
				if prev, ok := cs.groups[g.ID]; ok && prev.prog != p {
					a.add(Finding{
						Kind: KindGroupCollision, Severity: verify.Err,
						Service: p.Service, Slot: p.Slot, Switch: id, Table: -1,
						Detail: fmt.Sprintf("group %d already installed by service %q", g.ID, prev.prog.Service),
					})
				}
				// Switch.AddGroups replaces a group by ID: the last
				// program's entry is the one the switch holds.
				cs.groups[g.ID] = &compGroup{prog: p, g: g}
			}
		}
	}
	// Order every composed table like a live FlowTable would: priority
	// descending, first-installed first on ties (programs install in
	// deployment order).
	for _, cs := range a.switches {
		for _, rules := range cs.tables {
			sort.SliceStable(rules, func(i, j int) bool {
				return rules[i].entry.Priority > rules[j].entry.Priority
			})
		}
		for _, cst := range cs.states {
			sort.SliceStable(cst.entries, func(i, j int) bool {
				return cst.entries[i].entry.Priority > cst.entries[j].entry.Priority
			})
		}
	}
	a.dualUse()
}

// dualUse flags flow rules installed into a table another program claims
// as a state table: at execution time the state table wins the table ID
// outright, so the flow rules can never match. Same-program dual use is
// package verify's per-switch finding; here only the cross-program case
// is a composition defect.
func (a *analyzer) dualUse() {
	type pair struct {
		table int
		prog  *openflow.Program
	}
	seen := map[pair]bool{}
	for _, id := range a.switchIDs() {
		cs := a.switches[id]
		for t, cst := range cs.states {
			for _, r := range cs.tables[t] {
				if r.prog == cst.prog || seen[pair{t, r.prog}] {
					continue
				}
				seen[pair{t, r.prog}] = true
				a.add(Finding{
					Kind: KindStateClash, Severity: verify.Err,
					Service: r.prog.Service, Slot: r.prog.Slot, Switch: id, Table: t,
					Cookie: r.entry.Cookie,
					Detail: fmt.Sprintf("flow rules in table %d are dead: service %q claims it as a state table, which wins the table ID at execution", t, cst.prog.Service),
				})
			}
		}
	}
}

func (a *analyzer) add(f Finding) { a.findings = append(a.findings, f) }

// switchIDs returns the composed switches in ascending order.
func (a *analyzer) switchIDs() []int {
	ids := make([]int, 0, len(a.switches))
	for id := range a.switches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// owner returns the program owning an EtherType's dispatch, for
// provenance on packet-walk findings.
func (a *analyzer) owner(eth uint16) (service string, slot int) {
	if p, ok := a.ethOwner[eth]; ok {
		return p.Service, p.Slot
	}
	return "", -1
}

// span returns the number of slots a program occupies, treating an
// unset Slots as 1 (hand-built programs may leave it zero).
func span(p *openflow.Program) int {
	if p.Slots < 1 {
		return 1
	}
	return p.Slots
}

// cookiePrefix extracts the service prefix of a rule cookie — the part
// before the first '/', which uninstall-by-cookie-prefix operates on.
func cookiePrefix(cookie string) string {
	if i := strings.IndexByte(cookie, '/'); i >= 0 {
		return cookie[:i]
	}
	return cookie
}

// conflicts runs every cross-service composition check.
func (a *analyzer) conflicts() {
	a.slotConflicts()
	a.cookieConflicts()
	a.ruleConflicts()
	if a.opts.SlotTables != nil || a.opts.SlotGroups != nil {
		a.slotDiscipline()
	}
}

// slotConflicts flags pairs of programs whose slot ranges intersect.
func (a *analyzer) slotConflicts() {
	for i, p := range a.progs {
		for _, q := range a.progs[i+1:] {
			if p.Slot < q.Slot+span(q) && q.Slot < p.Slot+span(p) {
				a.add(Finding{
					Kind: KindSlotCollision, Severity: verify.Err,
					Service: q.Service, Slot: q.Slot, Switch: -1, Table: -1,
					Detail: fmt.Sprintf("slots [%d,%d) collide with service %q slots [%d,%d)",
						q.Slot, q.Slot+span(q), p.Service, p.Slot, p.Slot+span(p)),
				})
			}
		}
	}
}

// cookieConflicts flags programs sharing a cookie prefix: deleting one
// service by cookie prefix would tear down the other's rules too.
func (a *analyzer) cookieConflicts() {
	prefixes := make([]map[string]bool, len(a.progs))
	for i, p := range a.progs {
		prefixes[i] = make(map[string]bool)
		for _, id := range p.SwitchIDs() {
			sp := p.At(id)
			for _, fr := range sp.Flows {
				prefixes[i][cookiePrefix(fr.Entry.Cookie)] = true
			}
			for _, ts := range sp.States {
				for _, e := range ts.Entries {
					prefixes[i][cookiePrefix(e.Cookie)] = true
				}
			}
		}
	}
	for i, p := range a.progs {
		for j, q := range a.progs[i+1:] {
			for pre := range prefixes[i] {
				if prefixes[i+1+j][pre] {
					a.add(Finding{
						Kind: KindCookieCollision, Severity: verify.Warn,
						Service: q.Service, Slot: q.Slot, Switch: -1, Table: -1,
						Detail: fmt.Sprintf("cookie prefix %q shared with service %q", pre, p.Service),
					})
				}
			}
		}
	}
}

// ruleConflicts scans every composed table for cross-program rule
// interactions: overlapping matches at equal priority (install-order
// dependent behaviour, an error) and cross-program shadowing (one
// service silently disabling another's rule, a warning).
func (a *analyzer) ruleConflicts() {
	for _, id := range a.switchIDs() {
		cs := a.switches[id]
		var tids []int
		for t := range cs.tables {
			tids = append(tids, t)
		}
		sort.Ints(tids)
		for _, t := range tids {
			rules := cs.tables[t]
			for i, lo := range rules {
				for _, hi := range rules[:i] {
					if hi.prog == lo.prog {
						continue
					}
					if hi.entry.Priority == lo.entry.Priority {
						if hi.entry.Match.Overlaps(lo.entry.Match) {
							a.add(Finding{
								Kind: KindOverlap, Severity: verify.Err,
								Service: lo.prog.Service, Slot: lo.prog.Slot,
								Switch: id, Table: t, Cookie: lo.entry.Cookie,
								Detail: fmt.Sprintf("overlaps rule %q of service %q at equal priority %d: winner depends on install order",
									hi.entry.Cookie, hi.prog.Service, lo.entry.Priority),
							})
						}
						continue
					}
					if hi.entry.Match.Covers(lo.entry.Match) {
						a.add(Finding{
							Kind: KindCrossShadow, Severity: verify.Warn,
							Service: lo.prog.Service, Slot: lo.prog.Slot,
							Switch: id, Table: t, Cookie: lo.entry.Cookie,
							Detail: fmt.Sprintf("shadowed by rule %q of service %q (priority %d > %d)",
								hi.entry.Cookie, hi.prog.Service, hi.entry.Priority, lo.entry.Priority),
						})
						break // one report per shadowed rule
					}
				}
			}
		}
	}
}

// slotDiscipline checks that every rule and group sits inside the
// table/group ranges its program's slots own (table 0 is shared).
func (a *analyzer) slotDiscipline() {
	for _, p := range a.progs {
		for _, id := range p.SwitchIDs() {
			sp := p.At(id)
			if a.opts.SlotTables != nil {
				for _, fr := range sp.Flows {
					if fr.Table == 0 || tableInSlots(fr.Table, p, a.opts.SlotTables) {
						continue
					}
					a.add(Finding{
						Kind: KindSlotViolation, Severity: verify.Warn,
						Service: p.Service, Slot: p.Slot, Switch: id, Table: fr.Table,
						Cookie: fr.Entry.Cookie,
						Detail: fmt.Sprintf("rule in table %d outside slots [%d,%d)", fr.Table, p.Slot, p.Slot+span(p)),
					})
				}
				for _, ts := range sp.States {
					if ts.Table == 0 || tableInSlots(ts.Table, p, a.opts.SlotTables) {
						continue
					}
					a.add(Finding{
						Kind: KindSlotViolation, Severity: verify.Warn,
						Service: p.Service, Slot: p.Slot, Switch: id, Table: ts.Table,
						Detail: fmt.Sprintf("state table %d outside slots [%d,%d)", ts.Table, p.Slot, p.Slot+span(p)),
					})
				}
			}
			if a.opts.SlotGroups != nil {
				for _, g := range sp.Groups {
					if groupInSlots(g.ID, p, a.opts.SlotGroups) {
						continue
					}
					a.add(Finding{
						Kind: KindSlotViolation, Severity: verify.Warn,
						Service: p.Service, Slot: p.Slot, Switch: id, Table: -1,
						Detail: fmt.Sprintf("group %d outside slots [%d,%d)", g.ID, p.Slot, p.Slot+span(p)),
					})
				}
			}
		}
	}
}

func tableInSlots(table int, p *openflow.Program, ranges func(int) (int, int)) bool {
	for s := p.Slot; s < p.Slot+span(p); s++ {
		lo, hi := ranges(s)
		if table >= lo && table < hi {
			return true
		}
	}
	return false
}

func groupInSlots(id uint32, p *openflow.Program, ranges func(int) (uint32, uint32)) bool {
	for s := p.Slot; s < p.Slot+span(p); s++ {
		lo, hi := ranges(s)
		if id >= lo && id < hi {
			return true
		}
	}
	return false
}
