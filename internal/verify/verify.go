// Package verify statically checks installed OpenFlow configurations.
//
// A central argument of the paper is that SmartSouth keeps the data plane
// formally verifiable: every behaviour is visible as ordinary flow and
// group entries, so properties can be checked without running packets.
// This package implements that check for the properties that would break
// the SmartSouth services: dangling or backward goto instructions,
// references to missing groups, group-chaining loops, invalid output
// ports, out-of-range tag fields, fast-failover groups that can strand a
// packet, and rules shadowed by higher-priority entries.
package verify

import (
	"fmt"
	"slices"
	"sort"

	"smartsouth/internal/openflow"
)

// Severity grades an issue.
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

// Issue is one finding.
type Issue struct {
	Severity Severity
	Switch   int
	Table    int    // -1 when not table-related
	Cookie   string // offending rule, if any
	Msg      string
}

func (i Issue) String() string {
	where := fmt.Sprintf("sw%d", i.Switch)
	if i.Table >= 0 {
		where += fmt.Sprintf("/t%d", i.Table)
	}
	if i.Cookie != "" {
		where += "/" + i.Cookie
	}
	return fmt.Sprintf("[%s] %s: %s", i.Severity, where, i.Msg)
}

// Options tunes the checks.
type Options struct {
	// TagBytes, when > 0, bounds field references (matches and
	// set-fields) to the packet tag size.
	TagBytes int
	// MaxGroupDepth bounds group-chaining depth (default 8, matching the
	// pipeline model).
	MaxGroupDepth int
	// SkipShadowing disables the O(rules²) shadowing analysis.
	SkipShadowing bool
}

// Switch checks one live switch and returns all findings, most severe
// first.
func Switch(sw *openflow.Switch, opts Options) []Issue {
	return check(switchConfig(sw), opts)
}

// config is the read-only view of one switch's configuration the checker
// runs over. A live switch and a not-yet-installed SwitchProgram both
// reduce to it — slices of pointers to the rules where they already are,
// never copies of them — so the two entry points share every check.
type config struct {
	id, numPorts int
	tables       []table // the non-empty tables, ascending ID
	group        func(id uint32) *openflow.GroupEntry
}

// table is one table ID's share of a config. Both lists are in match
// order (priority descending, insertion order on ties). A non-empty
// states list means a stateful stage claims the ID at execution time.
type table struct {
	id     int
	flows  []*openflow.FlowEntry
	key    []openflow.Field
	states []*openflow.StateEntry
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

// programConfig views a switch program as the configuration
// Materialize would produce on an empty switch: rules grouped per table
// in match order, a state table keyed by the first spec that populates
// it, and the last group entry winning a duplicated ID.
func programConfig(sp *openflow.SwitchProgram) config {
	c := config{id: sp.Switch, numPorts: sp.NumPorts}
	at := func(id int) *table {
		for i := range c.tables {
			if c.tables[i].id == id {
				return &c.tables[i]
			}
		}
		c.tables = append(c.tables, table{id: id})
		return &c.tables[len(c.tables)-1]
	}
	for _, r := range sp.Flows {
		t := at(r.Table)
		t.flows = append(t.flows, r.Entry)
	}
	for _, ts := range sp.States {
		if len(ts.Entries) == 0 {
			continue
		}
		t := at(ts.Table)
		if len(t.states) == 0 {
			t.key = ts.Key
		}
		t.states = append(t.states, ts.Entries...)
	}
	slices.SortFunc(c.tables, func(a, b table) int { return a.id - b.id })
	for i := range c.tables {
		t := &c.tables[i]
		slices.SortStableFunc(t.flows, func(a, b *openflow.FlowEntry) int { return b.Priority - a.Priority })
		slices.SortStableFunc(t.states, func(a, b *openflow.StateEntry) int { return b.Priority - a.Priority })
	}
	groups := make(map[uint32]*openflow.GroupEntry, len(sp.Groups))
	for _, g := range sp.Groups {
		groups[g.ID] = g
	}
	c.group = func(id uint32) *openflow.GroupEntry { return groups[id] }
	return c
}

// check runs every analysis over one configuration.
func check(c config, opts Options) []Issue {
	if opts.MaxGroupDepth <= 0 {
		opts.MaxGroupDepth = 8
	}
	v := &verifier{cfg: c, opts: opts}
	v.tables()
	v.groups()
	if !opts.SkipShadowing {
		v.shadowing()
	}
	sort.SliceStable(v.issues, func(i, j int) bool {
		return v.issues[i].Severity > v.issues[j].Severity
	})
	return v.issues
}

// Errors filters issues of severity Err.
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == Err {
			out = append(out, i)
		}
	}
	return out
}

type verifier struct {
	cfg    config
	opts   Options
	issues []Issue
}

func (v *verifier) add(sev Severity, table int, cookie, format string, args ...any) {
	v.issues = append(v.issues, Issue{
		Severity: sev, Switch: v.cfg.id, Table: table, Cookie: cookie,
		Msg: fmt.Sprintf(format, args...),
	})
}

// present reports whether table id holds any entry.
func (v *verifier) present(id int) bool {
	for i := range v.cfg.tables {
		if v.cfg.tables[i].id == id {
			return true
		}
	}
	return false
}

// gotoTarget checks an entry's goto instruction against table discipline.
func (v *verifier) gotoTarget(table int, cookie string, target int) {
	if target == openflow.NoGoto {
		return
	}
	if target <= table {
		v.add(Err, table, cookie, "backward goto %d", target)
	} else if !v.present(target) {
		v.add(Warn, table, cookie, "goto empty table %d (packet will be dropped)", target)
	}
}

func (v *verifier) tables() {
	for i := range v.cfg.tables {
		t := &v.cfg.tables[i]
		if len(t.states) > 0 {
			// A state table claims its ID at execution time; flow entries
			// sharing it are unreachable.
			if len(t.flows) > 0 {
				v.add(Err, t.id, "", "table %d holds both %d flow entries and %d state transitions; the flow entries are unreachable", t.id, len(t.flows), len(t.states))
			}
			v.stateTable(t)
			continue
		}
		for _, e := range t.flows {
			v.gotoTarget(t.id, e.Cookie, e.Goto)
			v.actions(t.id, e.Cookie, e.Actions)
			v.fields(t.id, e.Cookie, e.Match.Fields)
		}
	}
}

// stateTable checks one stateful stage: goto discipline, actions and
// field bounds of every transition, key-field bounds, and state-write
// reachability (a transition writing a state no entry can ever match is
// a likely encoding bug).
func (v *verifier) stateTable(t *table) {
	if v.opts.TagBytes > 0 {
		for _, kf := range t.key {
			if kf.End() > v.opts.TagBytes*8 {
				v.add(Err, t.id, "", "state-table key field %s exceeds tag size %dB", kf, v.opts.TagBytes)
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
	for _, e := range t.states {
		v.gotoTarget(t.id, e.Cookie, e.Goto)
		v.actions(t.id, e.Cookie, e.Actions)
		v.fields(t.id, e.Cookie, e.Match.Fields)
		if e.SetState != nil && !matchable(*e.SetState) {
			v.add(Warn, t.id, e.Cookie, "writes state %d, which no transition of table %d matches", *e.SetState, t.id)
		}
	}
}

func (v *verifier) fields(table int, cookie string, fms []openflow.FieldMatch) {
	if v.opts.TagBytes <= 0 {
		return
	}
	for _, fm := range fms {
		if fm.F.End() > v.opts.TagBytes*8 {
			v.add(Err, table, cookie, "match field %s exceeds tag size %dB", fm.F, v.opts.TagBytes)
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
				v.add(Err, table, cookie, "output to invalid port %d (switch has %d ports)", act.Port, v.cfg.numPorts)
			}
		case openflow.Group:
			if v.cfg.group(act.ID) == nil {
				v.add(Err, table, cookie, "action references missing group %d", act.ID)
			}
		case openflow.SetField:
			if !act.F.Valid() {
				v.add(Err, table, cookie, "set-field with invalid field %s", act.F)
			} else if v.opts.TagBytes > 0 && act.F.End() > v.opts.TagBytes*8 {
				v.add(Err, table, cookie, "set-field %s exceeds tag size %dB", act.F, v.opts.TagBytes)
			}
		}
	}
}

// groups checks group references, chaining depth/loops and FF liveness
// coverage.
func (v *verifier) groups() {
	// Only groups reachable from a rule are checked: walk the ID space
	// referenced from rules and, transitively, from buckets.
	seen := map[uint32]*openflow.GroupEntry{}
	var queue []uint32
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
	type listID struct {
		first *openflow.Action
		n     int
	}
	leaf := make([]listID, v.cfg.numPorts+1)
	// chain[id] lists the installed groups that group id's buckets hand
	// packets to, in bucket and action order.
	chain := map[uint32][]uint32{}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		g := seen[id]
		if len(g.Buckets) == 0 {
			v.add(Warn, -1, "", "group %d has no buckets (packets handed to it vanish)", id)
		}
		hasLive := false
		for bi, b := range g.Buckets {
			if b.WatchPort == openflow.WatchNone {
				hasLive = true
			} else if b.WatchPort < 1 || b.WatchPort > v.cfg.numPorts {
				v.add(Err, -1, "", "group %d bucket %d watches invalid port %d", id, bi, b.WatchPort)
			}
			if len(b.Actions) == 0 {
				continue
			}
			list := listID{&b.Actions[0], len(b.Actions)}
			memo := b.WatchPort >= 0 && b.WatchPort < len(leaf)
			if memo && leaf[b.WatchPort] == list {
				continue
			}
			found, chained := len(v.issues), len(chain[id])
			for _, a := range b.Actions {
				switch act := a.(type) {
				case openflow.Group:
					if v.cfg.group(act.ID) == nil {
						v.add(Err, -1, "", "group %d bucket %d references missing group %d", id, bi, act.ID)
					} else {
						chain[id] = append(chain[id], act.ID)
					}
				case openflow.Output:
					if !v.validPort(act.Port) {
						v.add(Err, -1, "", "group %d bucket %d outputs to invalid port %d", id, bi, act.Port)
					}
				}
			}
			enqueue(b.Actions)
			if memo && len(v.issues) == found && len(chain[id]) == chained {
				leaf[b.WatchPort] = list
			}
		}
		if g.Type == openflow.GroupFF && !hasLive && len(g.Buckets) > 0 {
			v.add(Warn, -1, "", "fast-failover group %d has no unconditional bucket: packets are dropped when all %d watched ports fail", id, len(g.Buckets))
		}
	}
	// Chain-depth / loop detection via DFS over the chain graph. A group
	// whose buckets name no group can neither close a loop nor deepen a
	// chain, so the walk starts from the others only.
	state := map[uint32]int{} // 0 unvisited, 1 on stack, 2 done
	var walk func(id uint32, depth int)
	walk = func(id uint32, depth int) {
		if depth > v.opts.MaxGroupDepth {
			v.add(Err, -1, "", "group chain through %d exceeds depth %d", id, v.opts.MaxGroupDepth)
			return
		}
		if state[id] == 1 {
			v.add(Err, -1, "", "group chaining loop through group %d", id)
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
	ids := make([]uint32, 0, len(chain))
	for id := range chain {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if state[id] == 0 {
			walk(id, 1)
		}
	}
}

// shadowing flags rules that can never match because a strictly
// higher-priority rule in the same table covers every packet they match.
// Coverage is decided on the full match map (openflow.Match.Covers), so
// two rules with disjoint matches never shadow each other regardless of
// priority. Coverage by an identical match map, or by a deliberately
// broader rule that constrains fewer dimensions, is the SmartSouth
// override idiom (dispatcher overrides, multi-slot service exit rules)
// and is reported at Info; coverage by a rule with the same footprint
// that merely accepts more values — the shape an accidental shadow
// takes — is a Warn. Each shadowed rule is reported once, against the
// highest-priority rule covering it.
func (v *verifier) shadowing() {
	for ti := range v.cfg.tables {
		id, entries := v.cfg.tables[ti].id, v.cfg.tables[ti].flows
		for i, lo := range entries {
			for _, hi := range entries[:i] {
				if hi.Priority <= lo.Priority {
					continue
				}
				if !hi.Match.Covers(lo.Match) {
					continue
				}
				switch {
				case hi.Match.Equal(lo.Match):
					v.add(Info, id, lo.Cookie, "overridden by higher-priority rule %q (identical match)", hi.Cookie)
				case !hi.Match.SameFootprint(lo.Match):
					v.add(Info, id, lo.Cookie, "overridden by broader higher-priority rule %q", hi.Cookie)
				default:
					v.add(Warn, id, lo.Cookie, "shadowed by higher-priority rule %q", hi.Cookie)
				}
				break // one report per shadowed rule
			}
		}
	}
}
