package verify

import (
	"fmt"
	"sort"
	"strconv"

	"smartsouth/internal/openflow"
)

// fkey identifies a tag field by its bit geometry. Matching operates on
// bits, so two criteria with the same offset and width constrain the
// same thing regardless of diagnostic name. The analysis treats
// distinct geometries as independent (the compiler allocates
// non-overlapping fields per service, and packets only traverse their
// own service's rules — see docs/ANALYSIS.md for the limits).
type fkey struct {
	off, bits int
}

func keyOfField(f openflow.Field) fkey { return fkey{off: f.Off, bits: f.Bits} }

// fieldSet is a small ordered association of tag fields to value sets,
// sorted by (off, bits). A slice beats a map here: states hold a handful
// of fields, cloning is the hot path (one allocation and a memmove), and
// the canonical key needs sorted iteration anyway.
type fieldSet []fentry

type fentry struct {
	k fkey
	v ValueSet
}

func (fs fieldSet) get(k fkey) (ValueSet, bool) {
	for i := range fs {
		if fs[i].k == k {
			return fs[i].v, true
		}
	}
	return ValueSet{}, false
}

// set inserts or replaces in place, keeping the order.
func (fs fieldSet) set(k fkey, v ValueSet) fieldSet {
	i := 0
	for i < len(fs) && (fs[i].k.off < k.off || (fs[i].k.off == k.off && fs[i].k.bits < k.bits)) {
		i++
	}
	if i < len(fs) && fs[i].k == k {
		fs[i].v = v
		return fs
	}
	fs = append(fs, fentry{})
	copy(fs[i+1:], fs[i:])
	fs[i] = fentry{k: k, v: v}
	return fs
}

// symPacket is the abstract state of one packet class: a concrete
// EtherType and ingress port, a value set for the TTL, and a value set
// per constrained tag field. Absent fields default to Singleton(0) —
// controller-injected triggers carry a zeroed tag — unless wild is set,
// in which case they default to Top (host-originated packets).
//
// The label stack is deliberately NOT part of the state: no match can
// observe it, so pipeline behaviour is identical for any stack contents
// and excluding it keeps the loop check exact for label-pushing
// encodings (snapshot would otherwise never revisit a state).
type symPacket struct {
	eth    uint16
	inPort int
	wild   bool
	ttl    ValueSet
	fields fieldSet
}

func newSymPacket(eth uint16, inPort int, wild bool) *symPacket {
	return &symPacket{
		eth:    eth,
		inPort: inPort,
		wild:   wild,
		ttl:    Singleton(255),
	}
}

func (p *symPacket) clone() *symPacket {
	q := &symPacket{eth: p.eth, inPort: p.inPort, wild: p.wild, ttl: p.ttl}
	if len(p.fields) > 0 {
		q.fields = append(make(fieldSet, 0, len(p.fields)), p.fields...)
	}
	return q
}

// field returns the value set of a tag field, applying the default for
// unconstrained fields.
func (p *symPacket) field(f openflow.Field) ValueSet {
	if s, ok := p.fields.get(keyOfField(f)); ok {
		return s
	}
	if p.wild {
		return Top()
	}
	return Singleton(0)
}

// key returns the canonical state identity used for loop detection and
// memoization: switch-independent packet state only.
func (p *symPacket) key() string {
	var b []byte
	b = append(b, 'e')
	b = strconv.AppendUint(b, uint64(p.eth), 16)
	b = append(b, '|', 'i')
	b = strconv.AppendInt(b, int64(p.inPort), 10)
	b = append(b, '|', 't')
	b = append(b, p.ttl.Key()...)
	if p.wild {
		b = append(b, '|', 'w')
	}
	for _, fe := range p.fields { // already sorted by (off, bits)
		b = append(b, '|', 'f')
		b = strconv.AppendInt(b, int64(fe.k.off), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(fe.k.bits), 10)
		b = append(b, '=')
		b = append(b, fe.v.Key()...)
	}
	return string(b)
}

func (p *symPacket) String() string {
	s := fmt.Sprintf("eth=%#04x in=%d ttl=%s", p.eth, p.inPort, p.ttl)
	for _, fe := range p.fields {
		s += fmt.Sprintf(" tag[%d:%d]=%s", fe.k.off, fe.k.off+fe.k.bits, fe.v)
	}
	return s
}

// restrict intersects the packet state with a match, returning the
// restricted state and whether the intersection is non-empty (i.e.
// whether some concretization of p satisfies m). The result aliases p
// when the match imposes no new constraint; callers must treat it as
// immutable (action execution is copy-on-write, so this holds).
func restrict(p *symPacket, m openflow.Match) (*symPacket, bool) {
	if m.InPort != openflow.AnyPort && m.InPort != p.inPort {
		return nil, false
	}
	if m.EthType != openflow.AnyEthType && m.EthType != int(p.eth) {
		return nil, false
	}
	q := p
	cloned := false
	mut := func() *symPacket {
		if !cloned {
			q = p.clone()
			cloned = true
		}
		return q
	}
	if m.TTL != openflow.AnyTTL {
		ts := p.ttl.RestrictTo(uint64(m.TTL))
		if ts.Empty() {
			return nil, false
		}
		mut().ttl = ts
	}
	for _, fm := range m.Fields {
		cur := q.field(fm.F)
		next := cur.RestrictMask(fm.Value, fm.AcceptedMask(), fm.F.Max())
		if next.Empty() {
			return nil, false
		}
		p2 := mut()
		p2.fields = p2.fields.set(keyOfField(fm.F), next)
	}
	return q, true
}

// coveredBy reports whether every concretization of p satisfies m — the
// cutoff that makes the priority scan exact for concrete states: the
// first covering rule consumes the whole state, so lower-priority rules
// are not explored.
func coveredBy(p *symPacket, m openflow.Match) bool {
	if m.InPort != openflow.AnyPort && m.InPort != p.inPort {
		return false
	}
	if m.EthType != openflow.AnyEthType && m.EthType != int(p.eth) {
		return false
	}
	if m.TTL != openflow.AnyTTL && !p.ttl.AllEqual(uint64(m.TTL)) {
		return false
	}
	for _, fm := range m.Fields {
		if !p.field(fm.F).AllSatisfy(fm.Value, fm.AcceptedMask()) {
			return false
		}
	}
	return true
}

// storeCell addresses one state-store record: a state table on a switch
// plus the flow-key class of the packet ("" for keyless tables, the
// concatenated key for a concrete packet, "T" when any key field is
// symbolic — every unknown flow is merged into one cell).
type storeCell struct {
	sw, table int
	key       string
}

// stateStore is the walk's view of every state table's store: the cells
// written so far, absent meaning state 0 ("fresh" — the same default the
// live StateTable reads). Stores are immutable; with returns a copy, so
// branches and walk frames share them freely. The digest participates in
// the walk key: the discriminating state of a stateful backend lives in
// the switches, not the packet, and excluding it would make every DFS
// bounce look like a forwarding loop.
type stateStore map[storeCell]uint64

func (s stateStore) get(c storeCell) uint64 { return s[c] }

// with returns a store with cell c set to v. Writing the default state
// removes the cell, keeping the representation canonical for digests.
func (s stateStore) with(c storeCell, v uint64) stateStore {
	if s[c] == v {
		return s
	}
	ns := make(stateStore, len(s)+1)
	for k, ov := range s {
		ns[k] = ov
	}
	if v == 0 {
		delete(ns, c)
	} else {
		ns[c] = v
	}
	return ns
}

// digest renders the store canonically for walk keys: sorted non-zero
// cells. An empty store digests to "" so walks over pure flow-rule
// deployments key exactly as before.
func (s stateStore) digest() string {
	if len(s) == 0 {
		return ""
	}
	cells := make([]storeCell, 0, len(s))
	for c := range s {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		if a.table != b.table {
			return a.table < b.table
		}
		return a.key < b.key
	})
	var b []byte
	for _, c := range cells {
		b = append(b, '|', 'S')
		b = strconv.AppendInt(b, int64(c.sw), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(c.table), 10)
		b = append(b, '.')
		b = append(b, c.key...)
		b = append(b, '=')
		b = strconv.AppendUint(b, s[c], 16)
	}
	return string(b)
}

// cellFor computes the store cell a packet class reads in a state table.
// The key is concrete when every key field of the packet is a singleton;
// otherwise the class collapses to the shared symbolic cell "T" — a
// deliberate merge (all unknown flows share one state machine) that
// keeps the walk finite; see docs/ANALYSIS.md.
func cellFor(sw, table int, key []openflow.Field, p *symPacket) storeCell {
	var b []byte
	for _, f := range key {
		v, ok := p.field(f).Single()
		if !ok {
			return storeCell{sw: sw, table: table, key: "T"}
		}
		b = strconv.AppendUint(b, v, 16)
		b = append(b, '.')
	}
	return storeCell{sw: sw, table: table, key: string(b)}
}

// symEmit is one packet class leaving a switch on a port.
type symEmit struct {
	port int
	pkt  *symPacket
}

// pathEnd is the outcome of one execution path through a composed
// pipeline: the emissions along it, whether any rule matched, whether an
// explicit drop was executed, the table of a definite miss (-1 when the
// path ended normally), and the state store as of the end of the path
// (committed transitions included).
type pathEnd struct {
	emits     []symEmit
	matched   bool
	dropped   bool
	missTable int
	store     stateStore
}

// branch threads mutable state through symbolic action execution; forks
// (round-robin groups) multiply branches.
type branch struct {
	pkt     *symPacket
	emits   []symEmit
	dropped bool
	store   stateStore
}

func (b branch) forkPkt() branch {
	nb := branch{pkt: b.pkt.clone(), dropped: b.dropped, store: b.store}
	nb.emits = append(nb.emits, b.emits...)
	return nb
}

// symGroupDepth bounds group chaining, mirroring the pipeline model.
const symGroupDepth = 8

// pipelineAt symbolically executes the composed pipeline of switch sw
// on state σ under state store st. A switch no program installs rules on
// behaves as an empty pipeline: a definite table-0 miss.
func (a *analyzer) pipelineAt(sw int, σ *symPacket, st stateStore) []pathEnd {
	var out []pathEnd
	if sw >= len(a.views) || a.views[sw] == nil {
		return append(out, pathEnd{missTable: 0, store: st})
	}
	a.runTable(a.views[sw], 0, branch{pkt: σ, store: st}, false, &out)
	return out
}

func (a *analyzer) runTable(c *config, table int, b branch, matched bool, out *[]pathEnd) {
	t := c.table(table)
	if t == nil {
		*out = append(*out, pathEnd{emits: b.emits, matched: matched, dropped: b.dropped, missTable: table, store: b.store})
		return
	}
	// A stateful stage claims its table ID outright, mirroring the switch
	// pipeline (flow rules composed into the same table are dead; the
	// dual-use check reports them).
	if len(t.states) > 0 {
		a.runStateTable(c, t, b, matched, out)
		return
	}
	anyMatch := false
	for i, e := range t.flows {
		σ2, ok := restrict(b.pkt, e.Match)
		if !ok {
			continue
		}
		anyMatch = true
		if t.flowHit != nil {
			t.flowHit[i] = true
		}
		nb := branch{pkt: σ2, dropped: b.dropped, store: b.store}
		nb.emits = append(nb.emits, b.emits...)
		for _, br := range a.applyActions(c, e.Actions, nb, 0) {
			if e.Goto != openflow.NoGoto && e.Goto > table {
				a.runTable(c, e.Goto, br, true, out)
			} else {
				*out = append(*out, pathEnd{emits: br.emits, matched: true, dropped: br.dropped, missTable: -1, store: br.store})
			}
		}
		if coveredBy(b.pkt, e.Match) {
			return // rule consumes the whole state: scan is complete
		}
	}
	if !anyMatch {
		*out = append(*out, pathEnd{emits: b.emits, matched: matched, dropped: b.dropped, missTable: table, store: b.store})
	}
	// A partial residual (some rules matched subsets but none covered the
	// state) is over-approximated away; see docs/ANALYSIS.md.
}

// runStateTable symbolically executes one stateful stage. The flow's
// current state is read from the walk's store — concrete by
// construction, since transitions only write concrete values — so the
// state half of every transition is decided exactly and only the packet
// half can fork. A miss absorbs the packet where it stands, exactly as
// the switch pipeline breaks on a state-table miss.
func (a *analyzer) runStateTable(c *config, t *table, b branch, matched bool, out *[]pathEnd) {
	cell := cellFor(c.id, t.id, t.key, b.pkt)
	cur := b.store.get(cell)
	anyMatch := false
	for i, e := range t.states {
		if !e.MatchesState(cur) {
			continue
		}
		σ2, ok := restrict(b.pkt, e.Match)
		if !ok {
			continue
		}
		anyMatch = true
		if t.stateHit != nil {
			t.stateHit[i] = true
		}
		nb := branch{pkt: σ2, dropped: b.dropped, store: b.store}
		if e.SetState != nil {
			nb.store = b.store.with(cell, *e.SetState)
		}
		nb.emits = append(nb.emits, b.emits...)
		for _, br := range a.applyActions(c, e.Actions, nb, 0) {
			if e.Goto != openflow.NoGoto && e.Goto > t.id {
				a.runTable(c, e.Goto, br, true, out)
			} else {
				*out = append(*out, pathEnd{emits: br.emits, matched: true, dropped: br.dropped, missTable: -1, store: br.store})
			}
		}
		if coveredBy(b.pkt, e.Match) {
			return // transition consumes the whole packet class
		}
	}
	if !anyMatch {
		*out = append(*out, pathEnd{emits: b.emits, matched: matched, dropped: b.dropped, missTable: t.id, store: b.store})
	}
}

// applyActions executes an action list symbolically on branch b,
// returning the resulting branches (one unless a round-robin group
// forks).
func (a *analyzer) applyActions(c *config, acts []openflow.Action, b branch, depth int) []branch {
	branches := []branch{b}
	for _, act := range acts {
		var next []branch
		for _, br := range branches {
			next = append(next, a.applyAction(c, act, br, depth)...)
		}
		branches = next
	}
	return branches
}

func (a *analyzer) applyAction(c *config, act openflow.Action, b branch, depth int) []branch {
	switch ac := act.(type) {
	case openflow.Output:
		port := ac.Port
		if port == openflow.PortInPort {
			port = b.pkt.inPort
		}
		if port == openflow.PortDrop {
			b.dropped = true
			return []branch{b}
		}
		b.emits = append(b.emits, symEmit{port: port, pkt: b.pkt.clone()})
		return []branch{b}
	case openflow.SetField:
		b.pkt = b.pkt.clone()
		b.pkt.fields = b.pkt.fields.set(keyOfField(ac.F), Singleton(ac.Value&ac.F.Max()))
		return []branch{b}
	case openflow.DecTTL:
		b.pkt = b.pkt.clone()
		b.pkt.ttl = b.pkt.ttl.Map(func(v uint64) uint64 {
			if v > 0 {
				return v - 1
			}
			return 0
		})
		return []branch{b}
	case openflow.Group:
		return a.applyGroup(c, ac.ID, b, depth)
	default:
		// PushLabel / PopLabel: the label stack is invisible to matching.
		return []branch{b}
	}
}

// applyGroup executes a group entry symbolically. The analysis models a
// fault-free network: every port is live, so a fast-failover group
// always takes its first bucket. A round-robin SELECT group's counter
// is unknown, so every bucket is a possible branch.
func (a *analyzer) applyGroup(c *config, id uint32, b branch, depth int) []branch {
	g := c.group(id)
	if g == nil || depth >= symGroupDepth {
		// Missing groups are phase 1's finding; chaining depth is bounded
		// like the pipeline model. Both drop the packet here.
		return []branch{b}
	}
	switch g.Type {
	case openflow.GroupAll:
		// Each bucket runs on its own copy; only its emissions survive.
		// The packet itself continues unchanged past the group action.
		outer := []branch{b}
		for i := range g.Buckets {
			var next []branch
			for _, ob := range outer {
				sub := a.applyActions(c, g.Buckets[i].Actions,
					branch{pkt: ob.pkt.clone(), store: ob.store}, depth+1)
				for _, sb := range sub {
					nb := branch{pkt: ob.pkt, dropped: ob.dropped || sb.dropped, store: ob.store}
					nb.emits = append(nb.emits, ob.emits...)
					nb.emits = append(nb.emits, sb.emits...)
					next = append(next, nb)
				}
			}
			outer = next
		}
		return outer
	case openflow.GroupIndirect, openflow.GroupFF:
		if len(g.Buckets) == 0 {
			return []branch{b}
		}
		// Fault-free: the first FF bucket's watch port is live.
		return a.applyActions(c, g.Buckets[0].Actions, b, depth+1)
	case openflow.GroupSelectRR:
		var out []branch
		for i := range g.Buckets {
			out = append(out, a.applyActions(c, g.Buckets[i].Actions, b.forkPkt(), depth+1)...)
		}
		if len(out) == 0 {
			return []branch{b}
		}
		return out
	}
	return []branch{b}
}
