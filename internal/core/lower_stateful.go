package core

import (
	"fmt"

	"smartsouth/internal/openflow"
)

// CompileStateful lowers the template onto the stateful backend: per node,
// the (par, cur) pair of Algorithm 1 moves from packet tag bits into a
// keyless state table at T0, and every case of the algorithm becomes one
// EFSM transition (state condition + packet match -> actions + set-state).
//
// Encoding, per node i with degree d and B = BitsFor(d):
//
//	state = par<<B | cur
//
// State 0 doubles as "never visited" and "root finished": a non-root node
// always has par >= 1, so par<<B|cur > 0 whenever it holds DFS position,
// and the root's exhaust transition deliberately returns to 0 so a second
// trigger can start over without a state reset at the root. All other
// nodes keep their final (par, par) state after a run — re-triggering a
// stateful service requires ControlPlane.ResetState first.
//
// The port scan of the fast-failover advance groups is resolved at compile
// time instead: each transition directly names the next port to probe.
// Without link failures this picks exactly the port the first live FF
// bucket would have picked, so traversal order and message counts match
// the OF13 backend; under failures the stateful plane has no packet-time
// failover (the paper's trade-off for O(1) tag bits and zero groups).
func (t *Template) CompileStateful(p *openflow.Program) error {
	if err := t.validate(); err != nil {
		return err
	}
	if !t.L.Stateful() {
		return fmt.Errorf("core: CompileStateful requires a stateful layout (use NewStatefulLayout)")
	}
	if t.L.TagBytes() > p.TagBytes {
		p.TagBytes = t.L.TagBytes()
	}
	c := newLowering(t)
	for node := 0; node < t.G.NumNodes(); node++ {
		sp := p.Ensure(node, t.G.Degree(node))
		c.compileNodeStateful(node)
		sp.Flows = append(sp.Flows, c.flowRules...)
		ts := sp.StateSpec(t.T0)
		ts.Entries = append(ts.Entries, c.stateRules...)
	}
	return nil
}

// emitState adds a base transition plus its variants (see expand) to the
// current node. Terminal variants neither forward nor change state.
func (c *lowering) emitState(prio int, anyState bool, state, mask uint64, m openflow.Match,
	pre, cont []openflow.Action, set *uint64, gotoT int, vs []Variant, cookie string) {
	c.expand(m, pre, cont, vs, cookie,
		func(vi int, m openflow.Match, acts []openflow.Action, terminal bool, cookie string) {
			e := c.states.one()
			*e = openflow.StateEntry{
				Priority: prio + 1 + vi, AnyState: anyState, State: state, StateMask: mask,
				Match: m, Actions: acts, SetState: set, Goto: gotoT, Cookie: cookie,
			}
			if terminal {
				e.SetState, e.Goto = nil, openflow.NoGoto
			}
			c.stateRules = append(c.stateRules, e)
		})
}

// compileNodeStateful compiles node i's dispatcher and finish flow rules
// and its T0 transitions.
func (c *lowering) compileNodeStateful(i int) {
	t := c.t
	c.beginNode(i)
	d := t.G.Degree(i)
	B := openflow.BitsFor(uint64(d))
	S := t.L.Start
	if t.StateStart.Valid() {
		S = t.StateStart
	}
	st := func(par, cur int) uint64 { return uint64(par)<<B | uint64(cur) }
	next := func(par, cur int) *uint64 {
		v := c.nexts.one()
		*v = st(par, cur)
		return v
	}

	// Dispatcher: identical to the OF13 lowering — table 0 is an ordinary
	// flow table under both backends.
	c.addFlow(0, openflow.FlowEntry{
		Priority: 100, Match: c.match(openflow.AnyPort, t.DispatchFields...), Goto: t.T0,
		Cookie: c.dispatch,
	})

	// advance resolves Send_next_neighbor statically: the first port in
	// s..d that is not the parent, else back to the parent, else (root)
	// into the finish table. Mirrors the FF advance-group bucket order.
	// The continuation is the node's shared copy, like an OF13 bucket's.
	advance := func(s, par int) (cont []openflow.Action, set *uint64, gotoT int) {
		gotoT = openflow.NoGoto
		if t.Hooks.DeferOutput {
			gotoT = t.TFin
		}
		// forward builds the actions that leave via port k; up is the
		// UpField value (1 on parent returns).
		forward := func(hook []openflow.Action, k int, up uint64) []openflow.Action {
			c.acts = append(c.acts[:0], hook...)
			if t.Hooks.DeferOutput {
				c.acts = append(c.acts, openflow.SetField{F: t.Hooks.OutField, Value: uint64(k)})
				if t.Hooks.UpField.Valid() {
					c.acts = append(c.acts, openflow.SetField{F: t.Hooks.UpField, Value: up})
				}
			} else {
				c.acts = append(c.acts, openflow.Output{Port: k})
			}
			return c.intern(c.acts)
		}
		for k := s; k <= d; k++ {
			if k == par {
				continue
			}
			var hook []openflow.Action
			if t.Hooks.SendNext != nil {
				hook = t.Hooks.SendNext(i, s, par, k)
			}
			return forward(hook, k, 0), next(par, k), gotoT
		}
		if par >= 1 {
			var hook []openflow.Action
			if t.Hooks.SendParent != nil {
				hook = t.Hooks.SendParent(i, par)
			}
			return forward(hook, par, 1), next(par, par), gotoT
		}
		// Root exhausted every port: back to state 0, fall into the finish
		// table (the OF13 root-fallback bucket's cur := 0, par = 0 case).
		c.acts = c.acts[:0]
		if t.Hooks.DeferOutput {
			c.acts = append(c.acts, openflow.SetField{F: t.Hooks.OutField, Value: 0})
		}
		return c.intern(c.acts), next(0, 0), t.TFin
	}

	// Start: pkt.start = 0 in state 0 — this switch becomes the DFS root.
	rootActs := []openflow.Action{openflow.SetField{F: S, Value: 1}}
	if t.Hooks.RootStart != nil {
		rootActs = append(rootActs, t.Hooks.RootStart(i)...)
	}
	cont, set, g := advance(1, 0)
	c.emitState(PrioStart, false, 0, 0, c.match(openflow.AnyPort, eq(S, 0)), rootActs, cont, set, g, nil,
		c.cookie("start", -1, "", -1))

	// First visit: state 0, one transition per ingress port — the parent
	// is recorded in the state word instead of a packet field.
	for q := 1; q <= d; q++ {
		var vs []Variant
		if t.Hooks.FirstVisit != nil {
			vs = t.Hooks.FirstVisit(i, q)
		}
		cont, set, g := advance(1, q)
		c.emitState(PrioFirst, false, 0, 0, c.match(q), nil, cont, set, g, vs,
			c.cookie("first-in", q, "", -1))
	}

	seenHook := t.Hooks.Bounce
	if t.Hooks.BounceSplit {
		seenHook = t.Hooks.BounceSeen
	}
	inPort := []openflow.Action{openflow.Output{Port: openflow.PortInPort}}

	// Finished state (cur = par >= 1): bounce every arrival, keep state.
	for pp := 1; pp <= d; pp++ {
		if t.Hooks.BouncePerIn {
			for q := 1; q <= d; q++ {
				c.emitState(PrioFinished, false, st(pp, pp), 0, c.match(q),
					nil, inPort, nil, openflow.NoGoto,
					callHook(seenHook, i, q), c.cookie("done-p", pp, "-in", q))
			}
			continue
		}
		c.emitState(PrioFinished, false, st(pp, pp), 0, c.match(openflow.AnyPort),
			nil, inPort, nil, openflow.NoGoto,
			callHook(seenHook, i, openflow.AnyPort), c.cookie("done-p", pp, "", -1))
	}

	// Expected return (in = cur): one transition per (cur, par) pair, the
	// state condition replacing the OF13 rule's two tag-field matches.
	for q := 1; q <= d; q++ {
		for pp := 0; pp <= d; pp++ {
			if pp == q {
				continue // cur = par is the finished state above
			}
			var vs []Variant
			if t.Hooks.FromCur != nil {
				vs = t.Hooks.FromCur(i, q, pp)
			}
			cont, set, g := advance(q+1, pp)
			c.emitState(PrioExpected, false, st(pp, q), 0, c.match(q), nil, cont, set, g, vs,
				c.cookie("ret-c", q, "-p", pp))
		}
	}

	// Unexpected arrivals. The in < cur comparison masks the cur half of
	// the state word, so it needs one transition per (in, cur) pair but no
	// longer depends on par.
	if t.Hooks.BounceSplit {
		curMask := uint64(1)<<B - 1
		for q := 1; q <= d; q++ {
			for cv := q + 1; cv <= d; cv++ {
				c.emitState(PrioSeen, false, uint64(cv), curMask, c.match(q),
					nil, inPort, nil, openflow.NoGoto,
					callHook(t.Hooks.BounceSeen, i, q), c.cookie("seen-in", q, "-c", cv))
			}
			c.emitState(PrioNew, true, 0, 0, c.match(q),
				nil, inPort, nil, openflow.NoGoto,
				callHook(t.Hooks.BounceNew, i, q), c.cookie("new-in", q, "", -1))
		}
	} else if t.Hooks.BouncePerIn {
		for q := 1; q <= d; q++ {
			c.emitState(PrioNew, true, 0, 0, c.match(q),
				nil, inPort, nil, openflow.NoGoto,
				callHook(t.Hooks.Bounce, i, q), c.cookie("bounce-in", q, "", -1))
		}
	} else {
		c.emitState(PrioNew, true, 0, 0, c.match(openflow.AnyPort),
			nil, inPort, nil, openflow.NoGoto,
			callHook(t.Hooks.Bounce, i, openflow.AnyPort), c.cookie("bounce", -1, "", -1))
	}

	// Finish table: only reachable via the root-exhaust transition (or,
	// for DeferOutput services, with OutField = 0 after the service's own
	// higher-priority finish rules declined), so the state-dependent
	// C=0 ∧ P=0 guard of the OF13 lowering is unnecessary here.
	var fin []openflow.Action
	if t.Hooks.Finish != nil {
		fin = t.Hooks.Finish(i)
	}
	c.addFlow(t.TFin, openflow.FlowEntry{
		Priority: PrioFinish, Match: c.match(openflow.AnyPort),
		Actions: c.intern(fin), Goto: openflow.NoGoto,
		Cookie: c.cookie("finish", -1, "", -1),
	})
}
