// Package verify statically checks OpenFlow configurations.
//
// A central argument of the paper is that SmartSouth keeps the data plane
// formally verifiable: every behaviour is visible as ordinary flow, group
// and state entries, so properties can be checked without running
// packets. One engine makes that check over one read-only per-switch view
// (config), reached three ways:
//
//   - Switch checks a live switch's tables;
//   - CheckProgram checks one compiled Program in place, before install;
//   - CheckDeployment composes N programs per switch, the way installing
//     them one after another would, and checks them against the topology.
//
// Phase 1 runs on every view: dangling or backward gotos, references to
// missing groups, group-chaining loops, invalid output ports,
// out-of-range tag fields, fast-failover groups that can strand a packet,
// tables claimed by a state table, and rules shadowed by higher-priority
// entries. In a composed view the same passes also report what one
// program does to another (overlapping or shadowing rules, flow rules in
// another program's state table); phase 2 adds the remaining
// cross-program checks (slots, cookies, group IDs, state tables); phase 3
// walks symbolic packets across the topology (loops, blackholes, dead
// rules), and ProveDFS proves the traversal invariant. docs/ANALYSIS.md
// describes the model.
//
//simlint:deterministic
package verify

import (
	"fmt"
	"slices"
	"sort"

	"smartsouth/internal/openflow"
)

// Severity grades a finding.
type Severity int

const (
	// Info marks intentional-looking but noteworthy constructs.
	Info Severity = iota
	// Warn marks constructs that are suspicious but may be deliberate
	// (e.g. a fully shadowed rule — SmartSouth's dispatcher overrides do
	// this on purpose).
	Warn
	// Err marks configurations that will misbehave at packet time.
	Err
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Err:
		return "error"
	}
	return "?"
}

// MarshalText encodes the severity as its name, so JSON findings read
// "error" rather than an opaque integer.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes a severity name produced by MarshalText.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = Info
	case "warn":
		*s = Warn
	case "error":
		*s = Err
	default:
		return fmt.Errorf("unknown severity %q", b)
	}
	return nil
}

// Kind classifies a finding.
type Kind string

// Phase 1: one switch's configuration, whichever way it was reached.
const (
	// KindGotoBackward: a goto to the same or an earlier table.
	KindGotoBackward Kind = "goto-backward"
	// KindGotoEmpty: a goto to a table that holds nothing.
	KindGotoEmpty Kind = "goto-empty"
	// KindDualUse: a table ID holds flow entries and state transitions;
	// the state table claims the ID at execution.
	KindDualUse Kind = "dual-use"
	// KindTagBound: a match, set-field or state key reaches past the tag.
	KindTagBound Kind = "tag-bound"
	// KindBadField: a set-field names an invalid field.
	KindBadField Kind = "invalid-field"
	// KindBadPort: an output or watch port the switch does not have.
	KindBadPort Kind = "invalid-port"
	// KindMissingGroup: a rule or bucket names a group not installed.
	KindMissingGroup Kind = "missing-group"
	// KindEmptyGroup: a reachable group with no buckets.
	KindEmptyGroup Kind = "empty-group"
	// KindFFNoFallback: a fast-failover group with no unconditional
	// bucket.
	KindFFNoFallback Kind = "ff-no-fallback"
	// KindGroupDepth: a group chain deeper than Options.MaxGroupDepth.
	KindGroupDepth Kind = "group-depth"
	// KindGroupLoop: groups that hand packets to each other in a cycle.
	KindGroupLoop Kind = "group-loop"
	// KindStateUnmatched: a transition writes a state no transition of
	// its table matches.
	KindStateUnmatched Kind = "state-unmatched"
	// KindShadow: a higher-priority rule of the same program (or on a
	// live switch) covers every packet the rule matches.
	KindShadow Kind = "shadow"
)

// Phase 2: what the programs of a deployment do to each other.
const (
	// KindOverlap: two programs install overlapping matches at the same
	// priority in the same table — which rule wins depends on install
	// order.
	KindOverlap Kind = "conflict-overlap"
	// KindCrossShadow: a rule of one program covers a lower-priority
	// rule of another program in the same table, making it dead.
	KindCrossShadow Kind = "conflict-shadow"
	// KindSlotCollision: two programs claim overlapping slot ranges.
	KindSlotCollision Kind = "slot-collision"
	// KindSlotViolation: a program's rule or group lives outside the
	// table/group ranges its slot owns.
	KindSlotViolation Kind = "slot-violation"
	// KindCookieCollision: two programs share a cookie prefix, so
	// uninstall-by-cookie-prefix would tear down both.
	KindCookieCollision Kind = "cookie-collision"
	// KindGroupCollision: two programs install the same group ID on the
	// same switch.
	KindGroupCollision Kind = "group-collision"
	// KindStateClash: two programs install transitions into the same
	// state table, or one program's flow rules sit in a table another
	// program claims as a state table (the state table wins the table ID
	// at execution, silently disabling the flow rules).
	KindStateClash Kind = "state-collision"
)

// Phase 3: symbolic packets walked across the topology.
const (
	// KindLoop: a symbolic packet revisits a (switch, in-port,
	// tag-state), so the fabric forwards it forever.
	KindLoop Kind = "loop"
	// KindBlackhole: a symbolic packet reaches a switch with no
	// matching rule, or is dropped mid-service without being emitted.
	KindBlackhole Kind = "blackhole"
	// KindDeadRule: no symbolically reachable packet hits the rule
	// (reported only with Options.ReportDeadRules — bounce rules are
	// intentionally unreachable in a fault-free walk).
	KindDeadRule Kind = "dead-rule"
	// KindBudget: the exploration state budget was exhausted; the
	// reachability verdicts are incomplete.
	KindBudget Kind = "budget-exceeded"
	// KindDFS: the DFS traversal invariant does not hold (or could not
	// be proven) on the given topology.
	KindDFS Kind = "dfs-invariant"
)

// Finding is one result with rule provenance: which service, slot and
// switch the offending state belongs to. Service is empty and Slot -1
// when no program owns it (a live switch, a network-level finding);
// Switch and Table are -1 for network-level findings.
type Finding struct {
	Kind     Kind     `json:"kind"`
	Severity Severity `json:"severity"`
	Service  string   `json:"service,omitempty"`
	Slot     int      `json:"slot"`
	Switch   int      `json:"switch"`
	Table    int      `json:"table"`
	Cookie   string   `json:"cookie,omitempty"`
	Detail   string   `json:"detail"`
}

// Issue is Finding's former name, kept for callers not yet renamed.
type Issue = Finding

func (f Finding) String() string {
	where := "net"
	if f.Switch >= 0 {
		where = fmt.Sprintf("sw%d", f.Switch)
		if f.Table >= 0 {
			where += fmt.Sprintf("/t%d", f.Table)
		}
	}
	if f.Cookie != "" {
		where += "/" + f.Cookie
	}
	if f.Service != "" {
		where += fmt.Sprintf(" (%s slot %d)", f.Service, f.Slot)
	}
	return fmt.Sprintf("[%s] %s %s: %s", f.Severity, f.Kind, where, f.Detail)
}

// Errors filters findings of severity Err.
func Errors(fs []Finding) []Finding { return bySeverity(fs, Err) }

// Warnings filters findings of severity Warn.
func Warnings(fs []Finding) []Finding { return bySeverity(fs, Warn) }

func bySeverity(fs []Finding, sev Severity) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Severity == sev {
			out = append(out, f)
		}
	}
	return out
}

// sortFindings orders most severe first, then by kind, switch, table and
// cookie so output is deterministic.
func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Cookie < b.Cookie
	})
}

// bySeverityStable orders most severe first and keeps the check order
// otherwise: a switch's findings stay together, in switch-ID order.
func bySeverityStable(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Severity > fs[j].Severity })
}

// Options tunes the checks.
type Options struct {
	// TagBytes, when > 0, bounds field references (matches and
	// set-fields) to the packet tag size.
	TagBytes int
	// MaxGroupDepth bounds group-chaining depth (default 8, matching the
	// pipeline model).
	MaxGroupDepth int
	// SkipShadowing disables the O(rules²) rule-interaction pass:
	// shadowing, and between programs, overlap.
	SkipShadowing bool

	// HostEthTypes lists EtherTypes whose packets originate outside the
	// fabric (e.g. data traffic): the walk analyzes their tag contents
	// as unknown (Top) rather than controller-zeroed.
	HostEthTypes []uint16
	// ReportDeadRules adds Info findings for rules no reachable packet
	// hits. Off by default: fault-recovery rules (FF bounce paths) are
	// legitimately unreachable in the fault-free symbolic walk.
	ReportDeadRules bool
	// MaxStates bounds the number of distinct (switch, in-port, state)
	// nodes explored before the walk gives up with a KindBudget Warn.
	// Defaults to 200000.
	MaxStates int
	// SlotTables and SlotGroups, when set, give the table-ID and
	// group-ID ranges owned by a slot, enabling slot-discipline checks
	// (KindSlotViolation). The core package's geometry is passed in by
	// callers; the checker itself is layout-agnostic.
	SlotTables func(slot int) (lo, hi int)
	SlotGroups func(slot int) (lo, hi uint32)
}

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return 200000
}

// Switch checks one live switch and returns all findings, most severe
// first.
func Switch(sw *openflow.Switch, opts Options) []Finding {
	return newScratch().check(switchConfig(sw), opts)
}

// config is the read-only view of one switch's configuration the checker
// runs over. A live switch, a not-yet-installed SwitchProgram and the
// composition of several all reduce to it — slices of pointers to the
// rules where they already are, never copies of them — so every entry
// point shares every check.
type config struct {
	id, numPorts int
	tables       []table // the non-empty tables, ascending ID
	group        func(id uint32) *openflow.GroupEntry
	// prog owns every rule when the view has one owner; it is nil on a
	// live switch, and when the tables carry their owners.
	prog *openflow.Program
}

// table is one table ID's share of a config. Both lists are in match
// order (priority descending, install order on ties). A non-empty
// states list means a stateful stage claims the ID at execution time.
type table struct {
	id     int
	flows  []*openflow.FlowEntry
	key    []openflow.Field
	states []*openflow.StateEntry
	// flowOwner and stateOwner name each rule's program, parallel to
	// flows and states; nil when the view has at most one owner.
	flowOwner, stateOwner []*openflow.Program
	// flowHit and stateHit are the walk's hit marks, parallel to flows
	// and states; only phase 3 allocates them.
	flowHit, stateHit []bool
}

// table returns the table with ID id, or nil when it holds nothing.
func (c *config) table(id int) *table {
	for i := range c.tables {
		if c.tables[i].id == id {
			return &c.tables[i]
		}
	}
	return nil
}

func (c *config) flowOwner(t *table, i int) *openflow.Program {
	if t.flowOwner != nil {
		return t.flowOwner[i]
	}
	return c.prog
}

func (c *config) stateOwner(t *table, i int) *openflow.Program {
	if t.stateOwner != nil {
		return t.stateOwner[i]
	}
	return c.prog
}

func switchConfig(sw *openflow.Switch) config {
	c := config{id: sw.ID, numPorts: sw.NumPorts, group: sw.GroupByID}
	for _, id := range sw.TableIDs() {
		t := table{id: id, flows: sw.Table(id).Entries()}
		if st := sw.StateTableByID(id); st != nil {
			t.key, t.states = st.Key, st.Entries()
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// part is one program's share of one switch.
type part struct {
	prog *openflow.Program
	sp   *openflow.SwitchProgram
}

// scratch is one check worker's working memory, reused from switch to
// switch and cleared by each check before use: a parallel CheckProgram
// that allocated it per switch would hold far more memory at once.
type scratch struct {
	tables []table
	groups map[uint32]*openflow.GroupEntry
	seen   map[uint32]*openflow.GroupEntry // reachable groups
	chain  map[uint32][]uint32             // group -> the groups it hands to
	state  map[uint32]int                  // loop-walk colour
	queue  []uint32
	leaf   []listID
	ids    []uint32
	one    [1]part // CheckProgram's one part per switch
}

type listID struct { // a shared action list: first element and length
	first *openflow.Action
	n     int
}

func newScratch() *scratch {
	return &scratch{
		seen:  map[uint32]*openflow.GroupEntry{},
		chain: map[uint32][]uint32{},
		state: map[uint32]int{},
	}
}

// compose views parts — one switch's share of each program, in install
// order — as the configuration Materialize produces installing them one
// after another on an empty switch: rules grouped per table in match
// order, a state table keyed by the first spec that populates it, and
// the last group entry winning a duplicated ID. With more than one
// owner, every rule carries its program. The view lives in the scratch
// and is valid until the next call.
func (s *scratch) compose(parts []part) config {
	sp := parts[0].sp
	c := config{id: sp.Switch, numPorts: sp.NumPorts, tables: s.tables[:0]}
	owned := false
	for _, pt := range parts[1:] {
		owned = owned || pt.prog != parts[0].prog
	}
	if !owned {
		c.prog = parts[0].prog
	}
	at := func(id int) *table {
		if t := c.table(id); t != nil {
			return t
		}
		// Reuse the lists of the slot's previous table.
		c.tables = slices.Grow(c.tables, 1)[:len(c.tables)+1]
		t := &c.tables[len(c.tables)-1]
		*t = table{id: id, flows: t.flows[:0], states: t.states[:0]}
		if owned {
			t.flowOwner, t.stateOwner = []*openflow.Program{}, []*openflow.Program{}
		}
		return t
	}
	for _, pt := range parts {
		for _, r := range pt.sp.Flows {
			t := at(r.Table)
			t.flows = append(t.flows, r.Entry)
			if owned {
				t.flowOwner = append(t.flowOwner, pt.prog)
			}
		}
		for _, ts := range pt.sp.States {
			if len(ts.Entries) == 0 {
				continue
			}
			t := at(ts.Table)
			if len(t.states) == 0 {
				t.key = ts.Key
			}
			t.states = append(t.states, ts.Entries...)
			if owned {
				for range ts.Entries {
					t.stateOwner = append(t.stateOwner, pt.prog)
				}
			}
		}
	}
	slices.SortFunc(c.tables, func(a, b table) int { return a.id - b.id })
	for i := range c.tables {
		t := &c.tables[i]
		if owned {
			sort.Stable(ownedRules[*openflow.FlowEntry]{t.flows, t.flowOwner, func(e *openflow.FlowEntry) int { return e.Priority }})
			sort.Stable(ownedRules[*openflow.StateEntry]{t.states, t.stateOwner, func(e *openflow.StateEntry) int { return e.Priority }})
			continue
		}
		slices.SortStableFunc(t.flows, func(a, b *openflow.FlowEntry) int { return b.Priority - a.Priority })
		slices.SortStableFunc(t.states, func(a, b *openflow.StateEntry) int { return b.Priority - a.Priority })
	}
	s.tables = c.tables
	if s.groups == nil {
		s.groups = map[uint32]*openflow.GroupEntry{}
	}
	groups := s.groups
	clear(groups)
	for _, pt := range parts {
		for _, g := range pt.sp.Groups {
			groups[g.ID] = g
		}
	}
	c.group = func(id uint32) *openflow.GroupEntry { return groups[id] }
	return c
}

// ownedRules sorts rules by descending priority, stably, carrying each
// rule's owner along.
type ownedRules[E any] struct {
	rules    []E
	owner    []*openflow.Program
	priority func(E) int
}

func (o ownedRules[E]) Len() int           { return len(o.rules) }
func (o ownedRules[E]) Less(i, j int) bool { return o.priority(o.rules[i]) > o.priority(o.rules[j]) }
func (o ownedRules[E]) Swap(i, j int) {
	o.rules[i], o.rules[j] = o.rules[j], o.rules[i]
	o.owner[i], o.owner[j] = o.owner[j], o.owner[i]
}

// check runs phase 1 over one configuration.
func (s *scratch) check(c config, opts Options) []Finding {
	if opts.MaxGroupDepth <= 0 {
		opts.MaxGroupDepth = 8
	}
	v := &verifier{cfg: c, opts: opts, s: s}
	v.tables()
	v.groups()
	if !opts.SkipShadowing {
		v.interactions()
	}
	bySeverityStable(v.findings)
	return v.findings
}

type verifier struct {
	cfg      config
	opts     Options
	findings []Finding
	s        *scratch
	owner    *openflow.Program // of the rule under check
}

func (v *verifier) add(kind Kind, sev Severity, table int, cookie, format string, args ...any) {
	f := Finding{
		Kind: kind, Severity: sev, Slot: -1, Switch: v.cfg.id, Table: table, Cookie: cookie,
		Detail: fmt.Sprintf(format, args...),
	}
	if v.owner != nil {
		f.Service, f.Slot = v.owner.Service, v.owner.Slot
	}
	v.findings = append(v.findings, f)
}

// gotoTarget checks an entry's goto instruction against table discipline.
func (v *verifier) gotoTarget(table int, cookie string, target int) {
	if target == openflow.NoGoto {
		return
	}
	if target <= table {
		v.add(KindGotoBackward, Err, table, cookie, "backward goto %d", target)
	} else if v.cfg.table(target) == nil {
		v.add(KindGotoEmpty, Warn, table, cookie, "goto empty table %d (packet will be dropped)", target)
	}
}

func (v *verifier) tables() {
	for i := range v.cfg.tables {
		t := &v.cfg.tables[i]
		if len(t.states) > 0 {
			v.dualUse(t)
			v.stateTable(t)
			continue
		}
		for j, e := range t.flows {
			v.owner = v.cfg.flowOwner(t, j)
			v.gotoTarget(t.id, e.Cookie, e.Goto)
			v.actions(t.id, e.Cookie, e.Actions)
			v.fields(t.id, e.Cookie, e.Match.Fields)
		}
	}
}

// dualUse reports flow entries sharing a table ID with a state table,
// which claims the ID at execution time: they are unreachable. The state
// table's program is the owner of its first transition. Its own flow
// entries (every entry, in a view without owners) are one finding for
// the table; another program's are one state-collision per program.
func (v *verifier) dualUse(t *table) {
	claim := v.cfg.stateOwner(t, 0)
	own := 0
	var reported []*openflow.Program
	for j, e := range t.flows {
		p := v.cfg.flowOwner(t, j)
		if p == claim {
			own++
			continue
		}
		if slices.Contains(reported, p) {
			continue
		}
		reported = append(reported, p)
		v.owner = p
		v.add(KindStateClash, Err, t.id, e.Cookie, "flow rules in table %d are dead: service %q claims it as a state table, which wins the table ID at execution", t.id, claim.Service)
	}
	if own > 0 {
		v.owner = claim
		v.add(KindDualUse, Err, t.id, "", "table %d holds both %d flow entries and %d state transitions; the flow entries are unreachable", t.id, own, len(t.states))
	}
}

// stateTable checks one stateful stage: goto discipline, actions and
// field bounds of every transition, key-field bounds, and state-write
// reachability (a transition writing a state no entry can ever match is
// a likely encoding bug).
func (v *verifier) stateTable(t *table) {
	if v.opts.TagBytes > 0 {
		v.owner = v.cfg.stateOwner(t, 0)
		for _, kf := range t.key {
			if kf.End() > v.opts.TagBytes*8 {
				v.add(KindTagBound, Err, t.id, "", "state-table key field %s exceeds tag size %dB", kf, v.opts.TagBytes)
			}
		}
	}
	matchable := func(state uint64) bool {
		for _, e := range t.states {
			if e.MatchesState(state) {
				return true
			}
		}
		return false
	}
	for j, e := range t.states {
		v.owner = v.cfg.stateOwner(t, j)
		v.gotoTarget(t.id, e.Cookie, e.Goto)
		v.actions(t.id, e.Cookie, e.Actions)
		v.fields(t.id, e.Cookie, e.Match.Fields)
		if e.SetState != nil && !matchable(*e.SetState) {
			v.add(KindStateUnmatched, Warn, t.id, e.Cookie, "writes state %d, which no transition of table %d matches", *e.SetState, t.id)
		}
	}
}

func (v *verifier) fields(table int, cookie string, fms []openflow.FieldMatch) {
	if v.opts.TagBytes <= 0 {
		return
	}
	for _, fm := range fms {
		if fm.F.End() > v.opts.TagBytes*8 {
			v.add(KindTagBound, Err, table, cookie, "match field %s exceeds tag size %dB", fm.F, v.opts.TagBytes)
		}
	}
}

// validPort reports whether p is a reserved port or one of the switch's
// physical ports.
func (v *verifier) validPort(p int) bool {
	return p == openflow.PortController || p == openflow.PortSelf ||
		p == openflow.PortInPort || p == openflow.PortDrop ||
		(p >= 1 && p <= v.cfg.numPorts)
}

func (v *verifier) actions(table int, cookie string, acts []openflow.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case openflow.Output:
			if !v.validPort(act.Port) {
				v.add(KindBadPort, Err, table, cookie, "output to invalid port %d (switch has %d ports)", act.Port, v.cfg.numPorts)
			}
		case openflow.Group:
			if v.cfg.group(act.ID) == nil {
				v.add(KindMissingGroup, Err, table, cookie, "action references missing group %d", act.ID)
			}
		case openflow.SetField:
			if !act.F.Valid() {
				v.add(KindBadField, Err, table, cookie, "set-field with invalid field %s", act.F)
			} else if v.opts.TagBytes > 0 && act.F.End() > v.opts.TagBytes*8 {
				v.add(KindTagBound, Err, table, cookie, "set-field %s exceeds tag size %dB", act.F, v.opts.TagBytes)
			}
		}
	}
}

// groups checks group references, chaining depth/loops and FF liveness
// coverage. A group finding names the view's one owner, if it has one.
func (v *verifier) groups() {
	v.owner = v.cfg.prog
	// Only groups reachable from a rule are checked: walk the ID space
	// referenced from rules and, transitively, from buckets.
	seen, chain, state := v.s.seen, v.s.chain, v.s.state
	clear(seen)
	clear(chain)
	clear(state)
	queue := v.s.queue[:0]
	enqueue := func(acts []openflow.Action) {
		for _, a := range acts {
			ga, ok := a.(openflow.Group)
			if !ok {
				continue
			}
			if _, dup := seen[ga.ID]; dup {
				continue
			}
			if g := v.cfg.group(ga.ID); g != nil {
				seen[ga.ID] = g
				queue = append(queue, ga.ID)
			}
		}
	}
	for i := range v.cfg.tables {
		t := &v.cfg.tables[i]
		for _, e := range t.flows {
			enqueue(e.Actions)
		}
		for _, e := range t.states {
			enqueue(e.Actions)
		}
	}
	// Compiled programs share action lists between buckets — a node's
	// O(Δ³) advance buckets hold O(Δ) distinct lists, the buckets watching
	// one port nearly always the same one — and what a list references does
	// not depend on the bucket holding it. leaf[w] is the last list found
	// in a bucket watching port w that raised no finding and names no
	// group: seeing it again there, there is nothing to scan or enqueue.
	leaf := append(v.s.leaf[:0], make([]listID, v.cfg.numPorts+1)...)
	v.s.leaf = leaf
	// chain[id] lists the installed groups that group id's buckets hand
	// packets to, in bucket and action order.
	for qi := 0; qi < len(queue); qi++ {
		id := queue[qi]
		g := seen[id]
		if len(g.Buckets) == 0 {
			v.add(KindEmptyGroup, Warn, -1, "", "group %d has no buckets (packets handed to it vanish)", id)
		}
		hasLive := false
		for bi, b := range g.Buckets {
			if b.WatchPort == openflow.WatchNone {
				hasLive = true
			} else if b.WatchPort < 1 || b.WatchPort > v.cfg.numPorts {
				v.add(KindBadPort, Err, -1, "", "group %d bucket %d watches invalid port %d", id, bi, b.WatchPort)
			}
			if len(b.Actions) == 0 {
				continue
			}
			list := listID{&b.Actions[0], len(b.Actions)}
			memo := b.WatchPort >= 0 && b.WatchPort < len(leaf)
			if memo && leaf[b.WatchPort] == list {
				continue
			}
			found, chained := len(v.findings), len(chain[id])
			for _, a := range b.Actions {
				switch act := a.(type) {
				case openflow.Group:
					if v.cfg.group(act.ID) == nil {
						v.add(KindMissingGroup, Err, -1, "", "group %d bucket %d references missing group %d", id, bi, act.ID)
					} else {
						chain[id] = append(chain[id], act.ID)
					}
				case openflow.Output:
					if !v.validPort(act.Port) {
						v.add(KindBadPort, Err, -1, "", "group %d bucket %d outputs to invalid port %d", id, bi, act.Port)
					}
				}
			}
			enqueue(b.Actions)
			if memo && len(v.findings) == found && len(chain[id]) == chained {
				leaf[b.WatchPort] = list
			}
		}
		if g.Type == openflow.GroupFF && !hasLive && len(g.Buckets) > 0 {
			v.add(KindFFNoFallback, Warn, -1, "", "fast-failover group %d has no unconditional bucket: packets are dropped when all %d watched ports fail", id, len(g.Buckets))
		}
	}
	v.s.queue = queue
	// Chain-depth / loop detection via DFS over the chain graph. A group
	// whose buckets name no group can neither close a loop nor deepen a
	// chain, so the walk starts from the others only.
	var walk func(id uint32, depth int)
	walk = func(id uint32, depth int) {
		if depth > v.opts.MaxGroupDepth {
			v.add(KindGroupDepth, Err, -1, "", "group chain through %d exceeds depth %d", id, v.opts.MaxGroupDepth)
			return
		}
		if state[id] == 1 { // 0 unvisited, 1 on stack, 2 done
			v.add(KindGroupLoop, Err, -1, "", "group chaining loop through group %d", id)
			return
		}
		if state[id] == 2 {
			return
		}
		state[id] = 1
		for _, next := range chain[id] {
			walk(next, depth+1)
		}
		state[id] = 2
	}
	// Ascending ID order: which group of a loop gets named must not depend
	// on map iteration.
	ids := v.s.ids[:0]
	for id := range chain {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	v.s.ids = ids
	for _, id := range ids {
		if state[id] == 0 {
			walk(id, 1)
		}
	}
}

// interactions reports, per table, how rules interact. For each rule it
// scans the rules before it in match order: one of another program at
// equal priority whose match overlaps is a KindOverlap error (which wins
// depends on install order), and the scan goes on; the first — highest
// priority — rule covering every packet it matches (openflow.Match.Covers,
// so disjoint matches never interact) decides the report and ends the
// scan. A coverer of another program silently disables the rule: a
// KindCrossShadow warning. Within one program (or on a live switch)
// coverage by an identical match map, or by a deliberately broader rule
// that constrains fewer dimensions, is the SmartSouth override idiom
// (dispatcher overrides, multi-slot service exit rules) and is Info;
// coverage by a rule with the same footprint that merely accepts more
// values — the shape an accidental shadow takes — is a Warn.
func (v *verifier) interactions() {
	for ti := range v.cfg.tables {
		t := &v.cfg.tables[ti]
		for i, lo := range t.flows {
			v.owner = v.cfg.flowOwner(t, i)
			for j, hi := range t.flows[:i] {
				other := v.cfg.flowOwner(t, j)
				if hi.Priority == lo.Priority {
					if other != v.owner && hi.Match.Overlaps(lo.Match) {
						v.add(KindOverlap, Err, t.id, lo.Cookie, "overlaps rule %q of service %q at equal priority %d: winner depends on install order",
							hi.Cookie, other.Service, lo.Priority)
					}
					continue
				}
				if !hi.Match.Covers(lo.Match) {
					continue
				}
				switch {
				case other != v.owner:
					v.add(KindCrossShadow, Warn, t.id, lo.Cookie, "shadowed by rule %q of service %q (priority %d > %d)",
						hi.Cookie, other.Service, hi.Priority, lo.Priority)
				case hi.Match.Equal(lo.Match):
					v.add(KindShadow, Info, t.id, lo.Cookie, "overridden by higher-priority rule %q (identical match)", hi.Cookie)
				case !hi.Match.SameFootprint(lo.Match):
					v.add(KindShadow, Info, t.id, lo.Cookie, "overridden by broader higher-priority rule %q", hi.Cookie)
				default:
					v.add(KindShadow, Warn, t.id, lo.Cookie, "shadowed by higher-priority rule %q", hi.Cookie)
				}
				break // one report per shadowed rule
			}
		}
	}
}
