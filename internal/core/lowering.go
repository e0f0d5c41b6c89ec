package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"smartsouth/internal/openflow"
)

// slabChunk is how many elements a slab asks the allocator for at a time.
const slabChunk = 512

// slab hands out consecutive pieces of large chunks: one allocation per
// chunk instead of one per rule. Pieces are zeroed, never moved and never
// handed out twice, so pointers into them stay valid for as long as the
// program that holds them.
type slab[T any] struct{ free []T }

// one returns a pointer to a fresh element.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// take returns a fresh piece of n elements with no spare capacity.
func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		s.free = make([]T, max(n, slabChunk))
	}
	piece := s.free[:n:n]
	s.free = s.free[n:]
	return piece
}

// lowering is the working state of one Compile / CompileStateful worker
// (one per openflow.EachSwitch goroutine): the slabs its nodes' rules are
// carved from, the scratch lists rules are assembled in, and the per-node
// table of distinct action lists.
//
// Both lowerings emit structure-shared programs: within a node, rules and
// buckets whose action lists are equal by value point at one copy. A
// node's (Δ+1)² advance groups hold O(Δ³) buckets but only O(Δ) distinct
// lists, so sharing is what keeps a node's compile at O(Δ²) memory. The
// shared lists are immutable from here on (see docs/COMPILER.md).
type lowering struct {
	t    *Template
	base openflow.Match // the service EtherType, everything else wildcarded

	// dispatch is the cookie of every node's table-0 rule, prefix the
	// "svcXXXX/nN/" head of the other cookies of the node being compiled.
	dispatch, prefix string
	cookies          cookieSlab

	// flowRules, groupRules and stateRules collect the rules of the node
	// being compiled, in install order; the caller appends them to the
	// node's switch program.
	flowRules  []openflow.FlowRule
	groupRules []*openflow.GroupEntry
	stateRules []*openflow.StateEntry

	// acts and pre are the lists under construction; cont backs the
	// one-action continuation of an OF13 rule.
	acts, pre []openflow.Action
	cont      [1]openflow.Action
	// lists maps the hash of each distinct action list of the current
	// node to its shared copy.
	lists map[uint64][]openflow.Action

	actions slab[openflow.Action]
	fields  slab[openflow.FieldMatch]
	flows   slab[openflow.FlowEntry]
	groups  slab[openflow.GroupEntry]
	buckets slab[openflow.Bucket]
	states  slab[openflow.StateEntry]
	nexts   slab[uint64]

	// ports[k] serves the current node's advance buckets that forward via
	// port k; bkts is the bucket list under construction and tails[par]
	// the stored list of parent par's latest advance group (OF13 only).
	ports []portActions
	bkts  []openflow.Bucket
	tails [][]openflow.Bucket
}

// portActions is what the advance buckets of one port have in common: the
// boxed tail actions, built once per node, and the shared list the port's
// latest bucket was given.
type portActions struct {
	setCur, out openflow.Action
	last        []openflow.Action
}

func newLowering(t *Template) *lowering {
	return &lowering{
		t:        t,
		base:     openflow.MatchEth(t.Eth),
		dispatch: fmt.Sprintf("svc%04x/dispatch", t.Eth),
		lists:    make(map[uint64][]openflow.Action),
	}
}

// beginNode forgets the previous node: its rules, its distinct lists and
// its cookie prefix.
func (c *lowering) beginNode(node int) {
	c.flowRules, c.groupRules, c.stateRules = c.flowRules[:0], c.groupRules[:0], c.stateRules[:0]
	clear(c.lists)
	c.prefix = fmt.Sprintf("svc%04x/n%d/", c.t.Eth, node)
}

// addFlow adds a flow rule to the current node.
func (c *lowering) addFlow(table int, e openflow.FlowEntry) {
	ne := c.flows.one()
	*ne = e
	c.flowRules = append(c.flowRules, openflow.FlowRule{Table: table, Entry: ne})
}

// callHook calls a bounce hook that may be unset.
func callHook(h func(node, in int) []Variant, node, in int) []Variant {
	if h == nil {
		return nil
	}
	return h(node, in)
}

// intern returns the current node's one shared copy of list, adding it if
// no equal list was seen before. All Action types are comparable structs,
// so equality is plain ==. Two different lists with one hash both stay
// correct; the later one is merely not shared.
func (c *lowering) intern(list []openflow.Action) []openflow.Action {
	if len(list) == 0 {
		return nil
	}
	h := hashActions(list)
	shared, seen := c.lists[h]
	if seen && slices.Equal(shared, list) {
		return shared
	}
	own := c.actions.take(len(list))
	copy(own, list)
	if !seen {
		c.lists[h] = own
	}
	return own
}

// sameBucket reports whether two buckets of one node are interchangeable:
// the same watch port and the same interned action list.
func sameBucket(a, b openflow.Bucket) bool {
	return a.WatchPort == b.WatchPort && len(a.Actions) == len(b.Actions) &&
		(len(a.Actions) == 0 || &a.Actions[0] == &b.Actions[0])
}

// hashActions mixes what tells the compiled action kinds apart. Unlisted
// kinds hash alike, which costs sharing precision, not correctness.
func hashActions(list []openflow.Action) uint64 {
	h := uint64(len(list))
	for _, a := range list {
		var v uint64
		switch a := a.(type) {
		case openflow.SetField:
			v = 1 | uint64(a.F.Off)<<3 | a.Value<<24
		case openflow.Output:
			v = 2 | uint64(a.Port)<<3
		case openflow.PushLabel:
			v = 3 | uint64(a.Value)<<3
		case openflow.Group:
			v = 4 | uint64(a.ID)<<3
		case openflow.PopLabel:
			v = 5
		case openflow.DecTTL:
			v = 6
		}
		h = (h ^ v) * 0x9E3779B97F4A7C15
	}
	return h
}

// match returns the service match narrowed to ingress port in (or
// openflow.AnyPort) and the given tag criteria, in order.
func (c *lowering) match(in int, fs ...openflow.FieldMatch) openflow.Match {
	m := c.base
	m.InPort = in
	if len(fs) > 0 {
		m.Fields = c.fields.take(len(fs))
		copy(m.Fields, fs)
	}
	return m
}

func eq(f openflow.Field, v int) openflow.FieldMatch {
	return openflow.FieldMatch{F: f, Value: uint64(v)}
}

// cookie names a rule of the current node: kind, then a and sep+b where
// they are >= 0.
func (c *lowering) cookie(kind string, a int, sep string, b int) string {
	return c.cookies.cut(c.prefix, kind, a, sep, b)
}

// cookieSlab cuts rule cookies from shared string buffers, so naming a
// rule costs no allocation of its own.
type cookieSlab struct {
	buf    strings.Builder
	digits [20]byte
}

// cut returns prefix+kind, followed by a and by sep+b where they are >= 0.
func (cs *cookieSlab) cut(prefix, kind string, a int, sep string, b int) string {
	// A full buffer is left to the cookies already cut from it and a
	// fresh one begun: growing it in place would copy them all.
	if n := len(prefix) + len(kind) + len(sep) + 2*len(cs.digits); cs.buf.Cap()-cs.buf.Len() < n {
		cs.buf = strings.Builder{}
		cs.buf.Grow(max(n, 16*slabChunk))
	}
	start := cs.buf.Len()
	cs.buf.WriteString(prefix)
	cs.buf.WriteString(kind)
	if a >= 0 {
		cs.buf.Write(strconv.AppendInt(cs.digits[:0], int64(a), 10))
	}
	if b >= 0 {
		cs.buf.WriteString(sep)
		cs.buf.Write(strconv.AppendInt(cs.digits[:0], int64(b), 10))
	}
	return cs.buf.String()[start:]
}

// expand resolves a base rule — actions pre ++ cont under match m — and
// its hook variants into concrete rules, calling add for each in install
// order: vi is -1 for the base rule, then 0, 1, … for the conditional
// variants, which sit at ascending priorities above it.
//
// A variant with no extra match criteria is unconditional: its actions
// fold into the base rule (and so into every conditional variant) instead
// of becoming a shadowing rule. A Terminal variant keeps only its own
// actions and ends the pipeline.
func (c *lowering) expand(m openflow.Match, pre, cont []openflow.Action, vs []Variant, cookie string,
	add func(vi int, m openflow.Match, acts []openflow.Action, terminal bool, cookie string)) {
	conditional := func(v Variant) bool { return len(v.Match) > 0 || v.Terminal }
	c.pre = append(c.pre[:0], pre...)
	for _, v := range vs {
		if !conditional(v) {
			c.pre = append(c.pre, v.Do...)
		}
	}
	c.acts = append(append(c.acts[:0], c.pre...), cont...)
	add(-1, m, c.intern(c.acts), false, cookie)
	vi := 0
	for _, v := range vs {
		if !conditional(v) {
			continue
		}
		vm := m
		vm.Fields = c.fields.take(len(m.Fields) + len(v.Match))
		copy(vm.Fields[copy(vm.Fields, m.Fields):], v.Match)
		acts := v.Do
		if !v.Terminal {
			c.acts = append(append(append(c.acts[:0], c.pre...), v.Do...), cont...)
			acts = c.acts
		}
		add(vi, vm, c.intern(acts), v.Terminal, c.cookies.cut(cookie, "/v", vi, "", -1))
		vi++
	}
}
