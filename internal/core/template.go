package core

import (
	"fmt"
	"slices"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Rule priorities within a service's entry table. Services may install
// their own pre-rules at PrioService and above (e.g. the anycast receiver
// exit); the template owns everything below.
//
// The relative order encodes Algorithm 1:
//
//	start (pkt.start=0)          -> the switch becomes the DFS root
//	first visit (cur=0)          -> record parent, probe first port
//	finished (cur=par, par>=1)   -> the paper's "act as if in < cur" case
//	expected return (in=cur)     -> advance to the next port
//	seen bounce (in < cur)       -> unexpected arrival on an already
//	                                probed port
//	new bounce (any other in)    -> unexpected arrival, bounce back
const (
	PrioService  = 10000
	PrioStart    = 9000
	PrioFirst    = 8000
	PrioFinished = 7500
	PrioExpected = 7000
	PrioSeen     = 6000
	PrioNew      = 5000
	PrioFinish   = 1000 // in the finish table
)

// Variant is a conditional refinement of a template rule: an extra set of
// match criteria plus extra actions. The compiler emits the base rule and,
// above it, one rule per variant carrying base+extra matches and actions.
// A Terminal variant replaces the rule's forwarding continuation entirely
// (used e.g. when the critical-node service decides and reports instead of
// continuing the traversal).
type Variant struct {
	Match    []openflow.FieldMatch
	Do       []openflow.Action
	Terminal bool
}

// Hooks are the service-specific functions of Table 1. Every hook may be
// nil. Hooks run at *compile time* and return the constant actions (or
// match-refined rule variants) to install; nothing here executes per
// packet. The compiler copies what it keeps of a hook's result, so a hook
// may return the same slice on every call (SendNext runs once per advance
// bucket, O(Δ³) times per node).
type Hooks struct {
	// RootStart runs when the trigger packet starts the traversal at this
	// node (pkt.start = 0).
	RootStart func(node int) []openflow.Action
	// FirstVisit corresponds to First_visit(): node saw the packet for
	// the first time, arriving on port in.
	FirstVisit func(node, in int) []Variant
	// FromCur corresponds to Visit_from_cur(): the packet returned on the
	// expected port cur while the packet's parent field for this node
	// holds par (0 at the root).
	FromCur func(node, cur, par int) []Variant
	// BounceSplit selects the two-case Visit_not_from_cur() treatment the
	// snapshot service needs (in < cur versus the rest). When false, a
	// single Bounce hook handles all unexpected arrivals.
	BounceSplit bool
	// BouncePerIn enumerates the ingress port on every bounce rule
	// (including the finished-state rules), so bounce hooks receive a
	// concrete port instead of openflow.AnyPort. Costs O(Δ) extra rules
	// per node; the packet-loss monitor needs it to tick the egress
	// counter of the port it bounces out of.
	BouncePerIn bool
	// Bounce corresponds to Visit_not_from_cur() (BounceSplit == false).
	// in is openflow.AnyPort on wildcard-ingress rules.
	Bounce func(node, in int) []Variant
	// BounceSeen handles unexpected arrivals on a port the node has
	// already probed itself (in < cur, or cur = par). in is
	// openflow.AnyPort on the wildcard finished-state rules.
	BounceSeen func(node, in int) []Variant
	// BounceNew handles unexpected arrivals on a not-yet-probed port.
	BounceNew func(node, in int) []Variant
	// SendNext corresponds to Send_next_neighbor(): actions placed in the
	// fast-failover bucket that forwards via port out, in the group
	// parameterised by (scan-start s, parent par).
	SendNext func(node, s, par, out int) []openflow.Action
	// SendParent corresponds to Send_parent().
	SendParent func(node, par int) []openflow.Action
	// Finish corresponds to Finish(): the root completed the traversal.
	Finish func(node int) []openflow.Action

	// DeferOutput changes the advance groups so that buckets *select* the
	// output port (writing it into OutField) without emitting the packet;
	// the rule's goto into the finish table then decides what to do —
	// typically after matching a fetched smart-counter value. The service
	// must install finish-table rules that Output{OutField's value}; the
	// root's finish sets OutField to 0. Bounce rules still emit directly.
	DeferOutput bool
	OutField    openflow.Field
	// UpField, when valid under the stateful backend, is a 1-bit packet
	// field the lowering sets to 1 on parent-return advances and 0 on
	// child advances. DeferOutput services whose finish-table rules need
	// to tell the two apart use it: under OF13 they match the packet's
	// par field against OutField, but the stateful backend keeps par in
	// switch state where a finish-table flow rule cannot see it.
	UpField openflow.Field
}

// Template compiles Algorithm 1 for every node of a graph into flow and
// group entries. A service instance owns an EtherType, a block of table
// IDs and a group-ID base so that several services coexist on one switch.
type Template struct {
	G *topo.Graph
	L *Layout
	// Eth is the service EtherType; table 0 dispatches on it.
	Eth uint16
	// T0 is the service's entry table, TFin the finish table. T0 must be
	// >= 1 (table 0 belongs to the dispatcher) and TFin > T0.
	T0, TFin int
	// GroupBase offsets this service's group IDs on every switch.
	GroupBase uint32
	Hooks     Hooks

	// StateStart / StatePar / StateCur override the DFS state fields
	// (defaults: L.Start, L.Par, L.Cur). Multi-stage services allocate
	// one state set per stage via Layout.NewStage.
	StateStart openflow.Field
	StatePar   []openflow.Field
	StateCur   []openflow.Field
	// DispatchFields adds criteria to the table-0 dispatcher rule, so
	// several templates sharing an EtherType (e.g. chaincast stages) can
	// demultiplex on a stage field.
	DispatchFields []openflow.FieldMatch
}

// stateFields resolves the effective DFS state fields for node i.
func (t *Template) stateFields(i int) (S, P, C openflow.Field) {
	S, P, C = t.L.Start, t.L.Par[i], t.L.Cur[i]
	if t.StateStart.Valid() {
		S = t.StateStart
	}
	if t.StatePar != nil {
		P = t.StatePar[i]
	}
	if t.StateCur != nil {
		C = t.StateCur[i]
	}
	return S, P, C
}

// AdvGroup returns the ID of node's fast-failover advance group that
// scans ports s, s+1, …, Δ (skipping par) and falls back to the parent.
// Group IDs only need to be unique per switch.
func (t *Template) AdvGroup(node, s, par int) uint32 {
	d := t.G.Degree(node)
	return t.GroupBase + uint32(s*(d+2)+par)
}

// Compile compiles the template for every node of the graph into the
// program (the paper's offline stage, minus installation).
func (t *Template) Compile(p *openflow.Program) error {
	if err := t.validate(); err != nil {
		return err
	}
	if t.L.TagBytes() > p.TagBytes {
		p.TagBytes = t.L.TagBytes()
	}
	c := newLowering(t)
	for node := 0; node < t.G.NumNodes(); node++ {
		sp := p.Ensure(node, t.G.Degree(node))
		c.compileNode(node)
		sp.Flows = append(sp.Flows, c.flowRules...)
		sp.Groups = append(sp.Groups, c.groupRules...)
	}
	return nil
}

func (t *Template) validate() error {
	if t.T0 < 1 || t.TFin <= t.T0 {
		return fmt.Errorf("core: invalid table block T0=%d TFin=%d", t.T0, t.TFin)
	}
	if t.L == nil || t.L.G != t.G {
		return fmt.Errorf("core: layout does not belong to this graph")
	}
	if t.Hooks.DeferOutput && !t.Hooks.OutField.Valid() {
		return fmt.Errorf("core: DeferOutput requires a valid OutField")
	}
	return nil
}

// Install compiles the template into a standalone program and hands it to
// the control plane in one batch. Services that add their own rules
// compose Compile into a shared service program instead.
func (t *Template) Install(c ControlPlane) error {
	p := openflow.NewProgram(fmt.Sprintf("svc%04x", t.Eth), (t.T0-1)/10)
	if err := t.Compile(p); err != nil {
		return err
	}
	c.InstallProgram(p)
	return nil
}

// emit adds an OF13 base rule plus its variants (see expand) to the
// current node.
func (c *lowering) emit(table, prio int, m openflow.Match, cont openflow.Action,
	gotoT int, vs []Variant, cookie string, pre ...openflow.Action) {
	c.cont[0] = cont
	c.expand(m, pre, c.cont[:], vs, cookie,
		func(vi int, m openflow.Match, acts []openflow.Action, terminal bool, cookie string) {
			next := gotoT
			if terminal {
				next = openflow.NoGoto
			}
			c.addFlow(table, openflow.FlowEntry{
				Priority: prio + 1 + vi, Match: m, Actions: acts, Goto: next, Cookie: cookie,
			})
		})
}

// compileNode compiles node i's OF13 rule block.
func (c *lowering) compileNode(i int) {
	t := c.t
	c.beginNode(i)
	d := t.G.Degree(i)
	S, P, C := t.stateFields(i)

	// Dispatcher: table 0 demultiplexes the service EtherType (plus any
	// extra dispatch criteria, e.g. a chain-stage field).
	c.addFlow(0, openflow.FlowEntry{
		Priority: 100, Match: c.match(openflow.AnyPort, t.DispatchFields...), Goto: t.T0,
		Cookie: c.dispatch,
	})

	// Every bucket that forwards via port k ends in the same two actions:
	// cur := k, then the output (or, deferred, the output selection). Box
	// them once per port; index 0 is the root fallback's cur := 0.
	c.ports = c.ports[:0]
	for k := 0; k <= d; k++ {
		var out openflow.Action = openflow.Output{Port: k}
		if t.Hooks.DeferOutput {
			out = openflow.SetField{F: t.Hooks.OutField, Value: uint64(k)}
		}
		c.ports = append(c.ports, portActions{setCur: openflow.SetField{F: C, Value: uint64(k)}, out: out})
	}

	// Advance groups: for every scan start s and parent value par, probe
	// ports s..d in order, skipping par and dead ports (fast failover),
	// then fall back to the parent (par >= 1) or finish (par = 0, root).
	// There are O(Δ³) buckets but a bucket's actions depend (almost) only
	// on its port, so nearly all of them share a handful of lists — and
	// group (s, par)'s bucket list is then the tail of group (s-1, par)'s,
	// so it is that tail: a node stores O(Δ²) buckets unless SendNext
	// depends on s.
	groups := c.groups.take((d + 1) * (d + 1))
	c.tails = append(c.tails[:0], make([][]openflow.Bucket, d+1)...)
	for s := 1; s <= d+1; s++ {
		for par := 0; par <= d; par++ {
			buckets := c.bkts[:0]
			for k := s; k <= d; k++ {
				if k == par {
					continue
				}
				c.acts = c.acts[:0]
				if t.Hooks.SendNext != nil {
					c.acts = append(c.acts, t.Hooks.SendNext(i, s, par, k)...)
				}
				port := &c.ports[k]
				c.acts = append(c.acts, port.setCur, port.out)
				// Nearly always the list this port's previous bucket got:
				// look there before hashing.
				if !slices.Equal(port.last, c.acts) {
					port.last = c.intern(c.acts)
				}
				buckets = append(buckets, openflow.Bucket{WatchPort: k, Actions: port.last})
			}
			c.acts = c.acts[:0]
			if par >= 1 {
				if t.Hooks.SendParent != nil {
					c.acts = append(c.acts, t.Hooks.SendParent(i, par)...)
				}
				c.acts = append(c.acts, c.ports[par].setCur, c.ports[par].out)
			} else {
				// Root fallback: mark finished (cur := 0); the entry
				// rule's goto into the finish table picks it up.
				c.acts = append(c.acts, c.ports[0].setCur)
				if t.Hooks.DeferOutput {
					c.acts = append(c.acts, c.ports[0].out)
				}
			}
			buckets = append(buckets, openflow.Bucket{WatchPort: openflow.WatchNone, Actions: c.intern(c.acts)})
			c.bkts = buckets
			// The previous scan start's list for this parent, minus the
			// bucket of port s-1 it opened with unless that was the parent.
			tail := c.tails[par]
			if s-1 >= 1 && s-1 != par {
				tail = tail[1:]
			}
			if !slices.EqualFunc(tail, buckets, sameBucket) {
				tail = c.buckets.take(len(buckets))
				copy(tail, buckets)
			}
			c.tails[par] = tail
			g := &groups[len(c.groupRules)]
			*g = openflow.GroupEntry{ID: t.AdvGroup(i, s, par), Type: openflow.GroupFF, Buckets: tail}
			c.groupRules = append(c.groupRules, g)
		}
	}
	adv := func(s, par int) openflow.Action { return openflow.Group{ID: t.AdvGroup(i, s, par)} }
	var bounce openflow.Action = openflow.Output{Port: openflow.PortInPort}

	// Start rule: pkt.start = 0 — this switch becomes the DFS root.
	rootActs := []openflow.Action{openflow.SetField{F: S, Value: 1}}
	if t.Hooks.RootStart != nil {
		rootActs = append(rootActs, t.Hooks.RootStart(i)...)
	}
	c.emit(t.T0, PrioStart, c.match(openflow.AnyPort, eq(S, 0)), adv(1, 0), t.TFin, nil,
		c.cookie("start", -1, "", -1), rootActs...)

	// First visit: cur = 0, one rule per ingress port, because set-field
	// can only write immediates — the packet's parent field is set to the
	// constant q of the matching rule.
	for q := 1; q <= d; q++ {
		var vs []Variant
		if t.Hooks.FirstVisit != nil {
			vs = t.Hooks.FirstVisit(i, q)
		}
		c.emit(t.T0, PrioFirst, c.match(q, eq(C, 0)), adv(1, q), t.TFin, vs,
			c.cookie("first-in", q, "", -1), openflow.SetField{F: P, Value: uint64(q)})
	}

	// seenHook resolves which hook covers "already seen" arrivals.
	seenHook := t.Hooks.Bounce
	if t.Hooks.BounceSplit {
		seenHook = t.Hooks.BounceSeen
	}

	// Finished state (cur = par >= 1): every arrival is treated like the
	// "already seen" bounce, per the paper's cur=par remark.
	for p := 1; p <= d; p++ {
		if t.Hooks.BouncePerIn {
			for q := 1; q <= d; q++ {
				c.emit(t.T0, PrioFinished, c.match(q, eq(C, p), eq(P, p)), bounce, openflow.NoGoto,
					callHook(seenHook, i, q), c.cookie("done-p", p, "-in", q))
			}
			continue
		}
		c.emit(t.T0, PrioFinished, c.match(openflow.AnyPort, eq(C, p), eq(P, p)), bounce, openflow.NoGoto,
			callHook(seenHook, i, openflow.AnyPort), c.cookie("done-p", p, "", -1))
	}

	// Expected return (in = cur): advance to cur+1. One rule per
	// (cur, parent-value) pair, since the next advance group depends on
	// the parent.
	for q := 1; q <= d; q++ {
		for p := 0; p <= d; p++ {
			if p == q {
				continue // cur = par is the finished state above
			}
			var vs []Variant
			if t.Hooks.FromCur != nil {
				vs = t.Hooks.FromCur(i, q, p)
			}
			c.emit(t.T0, PrioExpected, c.match(q, eq(C, q), eq(P, p)), adv(q+1, p), t.TFin, vs,
				c.cookie("ret-c", q, "-p", p))
		}
	}

	// Unexpected arrivals. With BounceSplit, arrivals on an already
	// probed port (in < cur) are distinguished from the rest by
	// enumerating (in, cur) pairs — the flow-table comparison technique
	// of the paper's reference [2].
	if t.Hooks.BounceSplit {
		for q := 1; q <= d; q++ {
			for cv := q + 1; cv <= d; cv++ {
				c.emit(t.T0, PrioSeen, c.match(q, eq(C, cv)), bounce, openflow.NoGoto,
					callHook(t.Hooks.BounceSeen, i, q), c.cookie("seen-in", q, "-c", cv))
			}
			c.emit(t.T0, PrioNew, c.match(q), bounce, openflow.NoGoto,
				callHook(t.Hooks.BounceNew, i, q), c.cookie("new-in", q, "", -1))
		}
	} else if t.Hooks.BouncePerIn {
		for q := 1; q <= d; q++ {
			c.emit(t.T0, PrioNew, c.match(q), bounce, openflow.NoGoto,
				callHook(t.Hooks.Bounce, i, q), c.cookie("bounce-in", q, "", -1))
		}
	} else {
		c.emit(t.T0, PrioNew, c.match(openflow.AnyPort), bounce, openflow.NoGoto,
			callHook(t.Hooks.Bounce, i, openflow.AnyPort), c.cookie("bounce", -1, "", -1))
	}

	// Finish table: reached by goto after every advance; fires only when
	// the advance group's root fallback set cur := 0 (and par = 0, i.e.
	// this node is the root).
	var fin []openflow.Action
	if t.Hooks.Finish != nil {
		fin = t.Hooks.Finish(i)
	}
	c.addFlow(t.TFin, openflow.FlowEntry{
		Priority: PrioFinish,
		Match:    c.match(openflow.AnyPort, eq(C, 0), eq(P, 0)),
		Actions:  c.intern(fin), Goto: openflow.NoGoto,
		Cookie: c.cookie("finish", -1, "", -1),
	})
}
