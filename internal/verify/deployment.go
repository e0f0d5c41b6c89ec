package verify

import (
	"fmt"
	"slices"
	"strings"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// CheckDeployment statically checks a set of compiled programs against
// the topology they will be installed on, without simulating a packet.
// It composes the programs per switch, in the order given — the order
// they install in — and reports:
//
//   - phase 1, per composed switch: every check Switch makes, and what
//     one program's rules do to another's (KindOverlap, KindCrossShadow,
//     and flow rules in another program's state table, KindStateClash);
//   - phase 2, the rest of the cross-program checks: KindSlotCollision,
//     KindCookieCollision, KindGroupCollision, KindStateClash for two
//     programs writing one state table, and — when Options provides the
//     slot geometry — KindSlotViolation;
//   - phase 3, symbolic reachability: KindLoop, KindBlackhole, with
//     Options.ReportDeadRules KindDeadRule, and KindBudget when the
//     exploration budget is exhausted.
//
// Findings come back most severe first, then by kind, switch, table and
// cookie, each carrying the provenance (service, slot, switch, rule
// cookie) needed to act on it. An empty Errors(findings) means the
// deployment is safe to install under the checker's fault-free model;
// see docs/ANALYSIS.md for what the model does and does not decide.
func CheckDeployment(progs []*openflow.Program, g *topo.Graph, opts Options) []Finding {
	a := newAnalyzer(progs, g, opts)
	a.compose(true)
	a.slotConflicts()
	a.cookieConflicts()
	if opts.SlotTables != nil || opts.SlotGroups != nil {
		a.slotDiscipline()
	}
	a.reach()
	if opts.ReportDeadRules {
		a.deadRules()
	}
	sortFindings(a.findings)
	return a.findings
}

// analyzer holds the composed deployment and accumulates findings.
type analyzer struct {
	progs []*openflow.Program
	g     *topo.Graph
	opts  Options

	ids      []int                        // the switches some program covers, ascending
	parts    [][]part                     // by switch ID: each program's share, in install order
	views    []*config                    // by switch ID, nil where no program has a share
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
		ethOwner: make(map[uint16]*openflow.Program),
		color:    make(map[string]int8),
	}
	for _, p := range progs {
		for _, id := range p.SwitchIDs() {
			if id >= len(a.parts) {
				a.parts = slices.Grow(a.parts, id+1-len(a.parts))[:id+1]
			}
			if a.parts[id] == nil {
				a.ids = append(a.ids, id)
			}
			sp := p.At(id)
			a.parts[id] = append(a.parts[id], part{p, sp})
			for _, fr := range sp.Flows {
				if fr.Table == 0 && fr.Entry.Match.EthType != openflow.AnyEthType {
					et := uint16(fr.Entry.Match.EthType)
					if _, ok := a.ethOwner[et]; !ok {
						a.ethOwner[et] = p
					}
				}
			}
		}
	}
	slices.Sort(a.ids)
	a.views = make([]*config, len(a.parts))
	return a
}

// compose builds every switch's view, and with check runs phases 1 and
// 2 on it, per switch over every core like CheckProgram. Findings are
// assembled in switch-ID order.
func (a *analyzer) compose(check bool) {
	per := make([][]Finding, len(a.ids))
	openflow.EachSwitch(len(a.ids), func() func(int) {
		s := newScratch()
		return func(i int) {
			id := a.ids[i]
			c := s.compose(a.parts[id])
			// The view outlives this switch — phase 3 walks it — so the
			// next one must not reuse its lists.
			s.tables, s.groups = nil, nil
			a.views[id] = &c
			if check {
				per[i] = append(s.check(c, a.opts), clashes(id, a.parts[id])...)
			}
		}
	})
	a.findings = append(a.findings, slices.Concat(per...)...)
}

// clashes reports what installing parts one after another on switch id
// overwrites or merges: a group ID two programs install (the later one
// replaces the earlier's), and a state table two programs write
// transitions into (one EFSM per table).
func clashes(id int, parts []part) []Finding {
	if len(parts) < 2 {
		return nil
	}
	var out []Finding
	type claim struct {
		table int
		prog  *openflow.Program
	}
	var states []claim // the first program populating each state table
	groups := map[uint32]*openflow.Program{}
	for _, pt := range parts {
		p := pt.prog
		for _, ts := range pt.sp.States {
			if len(ts.Entries) == 0 {
				continue
			}
			i := slices.IndexFunc(states, func(c claim) bool { return c.table == ts.Table })
			if i < 0 {
				states = append(states, claim{ts.Table, p})
			} else if states[i].prog != p {
				out = append(out, Finding{
					Kind: KindStateClash, Severity: Err,
					Service: p.Service, Slot: p.Slot, Switch: id, Table: ts.Table,
					Detail: fmt.Sprintf("state table %d already installed by service %q: one EFSM per table", ts.Table, states[i].prog.Service),
				})
			}
		}
		for _, g := range pt.sp.Groups {
			if prev := groups[g.ID]; prev != nil && prev != p {
				out = append(out, Finding{
					Kind: KindGroupCollision, Severity: Err,
					Service: p.Service, Slot: p.Slot, Switch: id, Table: -1,
					Detail: fmt.Sprintf("group %d already installed by service %q", g.ID, prev.Service),
				})
			}
			groups[g.ID] = p
		}
	}
	return out
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

func (a *analyzer) add(f Finding) { a.findings = append(a.findings, f) }

// slotConflicts flags pairs of programs whose slot ranges intersect.
func (a *analyzer) slotConflicts() {
	for i, p := range a.progs {
		for _, q := range a.progs[i+1:] {
			if p.Slot < q.Slot+span(q) && q.Slot < p.Slot+span(p) {
				a.add(Finding{
					Kind: KindSlotCollision, Severity: Err,
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
	var shared []string
	for i, p := range a.progs {
		for j, q := range a.progs[i+1:] {
			shared = shared[:0]
			for pre := range prefixes[i] {
				if prefixes[i+1+j][pre] {
					shared = append(shared, pre)
				}
			}
			slices.Sort(shared) // a map hands the prefixes back in any order
			for _, pre := range shared {
				a.add(Finding{
					Kind: KindCookieCollision, Severity: Warn,
					Service: q.Service, Slot: q.Slot, Switch: -1, Table: -1,
					Detail: fmt.Sprintf("cookie prefix %q shared with service %q", pre, p.Service),
				})
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
						Kind: KindSlotViolation, Severity: Warn,
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
						Kind: KindSlotViolation, Severity: Warn,
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
						Kind: KindSlotViolation, Severity: Warn,
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
