// Package analysis_test holds the deployment-level tests of
// internal/verify — CheckDeployment and ProveDFS over adversarial
// fixtures and the paper services — and the findings golden.
package analysis_test

import (
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// ethA/ethB are fixture EtherTypes outside the real services' range.
const (
	ethA = 0x8901
	ethB = 0x8902
)

// fixture is one adversarial deployment: programs built to trip a
// check, the topology they are analyzed on, and the options the check
// needs. The unit tests assert on its findings and the findings golden
// pins all of them.
type fixture struct {
	name  string
	g     *topo.Graph
	progs []*openflow.Program
	opts  verify.Options
}

func (fx fixture) check() []verify.Finding {
	return verify.CheckDeployment(fx.progs, fx.g, fx.opts)
}

// fixtures lists every adversarial deployment, in golden order.
func fixtures() []fixture {
	return []fixture{
		overlapFixture(), collisionFixture(), lastWriterFixture(), loopFixture(),
		starBlackholeFixture(), midServiceFixture(), cleanFixture(), deadRuleFixture(),
		slotFixture(), cookieFixture(), stateClashFixture(), statefulLoopFixture(),
		stateSlotFixture(),
	}
}

var toController = []openflow.Action{openflow.Output{Port: openflow.PortController}}

// slotTens gives slot s the tables [1+10s, 1+10(s+1)).
func slotTens(slot int) (int, int) { return 1 + slot*10, 1 + (slot+1)*10 }

// overlapFixture: two programs install overlapping matches at the same
// priority in the same table of the same switch.
func overlapFixture() fixture {
	g := topo.Line(2)
	mk := func(name string, slot int, cookie string) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		p.Slots = 1
		p.Ensure(0, g.Degree(0))
		p.AddFlow(0, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: toController, Cookie: cookie,
		})
		return p
	}
	return fixture{name: "overlap", g: g,
		progs: []*openflow.Program{mk("svc-one", 0, "one/dispatch"), mk("svc-two", 1, "two/dispatch")}}
}

// collisionFixture: two programs claiming the same slot, the same group
// ID on one switch, and the same cookie prefix.
func collisionFixture() fixture {
	g := topo.Line(2)
	p1 := openflow.NewProgram("first", 0)
	p1.Ensure(0, g.Degree(0))
	p1.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	p1.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "svc0001/dispatch"})

	p2 := openflow.NewProgram("second", 0) // same slot!
	p2.Ensure(0, g.Degree(0))
	p2.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect, // same group ID!
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	p2.AddFlow(0, 0, &openflow.FlowEntry{Priority: 90, Match: openflow.MatchEth(ethB),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "svc0001/probe"}) // same cookie prefix!
	return fixture{name: "collisions", g: g, progs: []*openflow.Program{p1, p2}}
}

// lastWriterFixture: two programs install group 7 on sw0; the later
// one's bucket outputs on a port with no link.
func lastWriterFixture() fixture {
	g := topo.Line(2)
	a := openflow.NewProgram("first", 1)
	a.Ensure(0, 2) // port 2 exists on the switch but has no link
	a.Ensure(1, g.Degree(1))
	a.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	a.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 7}}, Cookie: "first/fwd"})
	a.AddFlow(1, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "first/deliver"})

	b := openflow.NewProgram("second", 2)
	b.Ensure(0, 2)
	b.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 2}}}}})
	return fixture{name: "group-last-writer", g: g, progs: []*openflow.Program{a, b}}
}

// loopFixture: a tag encoding that loops on Ring(4) — every switch
// forwards the EtherType out port 1 unconditionally.
func loopFixture() fixture {
	g := topo.Ring(4)
	p := openflow.NewProgram("loopy", 0)
	for sw := 0; sw < g.NumNodes(); sw++ {
		p.Ensure(sw, g.Degree(sw))
		p.AddFlow(sw, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Cookie:  "loopy/fwd",
		})
	}
	return fixture{name: "loop", g: g, progs: []*openflow.Program{p}}
}

// starBlackholeFixture builds the seeded-defect star broadcast on
// Star(4): the center forwards to every leaf, but no leaf has a rule for
// the EtherType, so every forwarded packet is silently dropped.
func starBlackholeFixture() fixture {
	g := topo.Star(4)
	p := openflow.NewProgram("bcast", 0)
	p.Ensure(0, g.Degree(0))
	var outs []openflow.Action
	for port := 1; port <= g.Degree(0); port++ {
		outs = append(outs, openflow.Output{Port: port})
	}
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethB), Goto: openflow.NoGoto,
		Actions: outs, Cookie: "bcast/fanout",
	})
	// The leaves get NO rules — the seeded defect.
	return fixture{name: "star-blackhole", g: g, progs: []*openflow.Program{p}}
}

// midServiceFixture: the dispatch rule sends the packet into a slot
// table where no rule matches it.
func midServiceFixture() fixture {
	g := topo.Line(2)
	f := openflow.Field{Name: "state", Off: 0, Bits: 4}
	p := openflow.NewProgram("halfpipe", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethA), Goto: 1, Cookie: "halfpipe/dispatch",
	})
	// Table 1 only handles state=5; the injected zero-tag packet misses.
	p.AddFlow(0, 1, &openflow.FlowEntry{
		Priority: 10, Match: openflow.MatchEth(ethA).WithField(f, 5), Goto: openflow.NoGoto,
		Actions: toController, Cookie: "halfpipe/stage",
	})
	return fixture{name: "mid-service-blackhole", g: g, progs: []*openflow.Program{p}}
}

// cleanFixture: two well-behaved programs on disjoint EtherTypes, slots
// and cookie prefixes.
func cleanFixture() fixture {
	g := topo.Line(2)
	mk := func(name string, slot int, eth uint16) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		for sw := 0; sw < g.NumNodes(); sw++ {
			p.Ensure(sw, g.Degree(sw))
			p.AddFlow(sw, 0, &openflow.FlowEntry{
				Priority: 100, Match: openflow.MatchEth(eth), Goto: openflow.NoGoto,
				Actions: toController, Cookie: name + "/punt",
			})
		}
		return p
	}
	return fixture{name: "clean", g: g, progs: []*openflow.Program{mk("alpha", 0, ethA), mk("beta", 1, ethB)}}
}

// deadRuleFixture: a rule matching a tag value nothing writes.
func deadRuleFixture() fixture {
	g := topo.Line(2)
	f := openflow.Field{Name: "state", Off: 0, Bits: 4}
	p := openflow.NewProgram("svc", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
		Actions: toController, Cookie: "svc/live",
	})
	// state=9 never occurs: the injected tag is zero and nothing sets it.
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 200, Match: openflow.MatchEth(ethA).WithField(f, 9), Goto: openflow.NoGoto,
		Actions: toController, Cookie: "svc/dead",
	})
	return fixture{name: "dead-rule", g: g, progs: []*openflow.Program{p}}
}

// slotFixture: a rule in a table its program's slot does not own.
func slotFixture() fixture {
	g := topo.Line(2)
	p := openflow.NewProgram("stray", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 99, &openflow.FlowEntry{ // table 99 belongs to slot 9
		Priority: 10, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
		Actions: toController, Cookie: "stray/rule",
	})
	return fixture{name: "slot-discipline", g: g, progs: []*openflow.Program{p},
		opts: verify.Options{SlotTables: slotTens}}
}

// cookieFixture: two programs sharing six cookie prefixes.
func cookieFixture() fixture {
	g := topo.Line(2)
	mk := func(name string, slot int, eth uint16) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		p.Ensure(0, g.Degree(0))
		for i, pre := range []string{"fa", "fb", "fc", "fd", "fe", "ff"} {
			p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(eth + uint16(i)),
				Goto: openflow.NoGoto, Actions: toController, Cookie: pre + "/" + name})
		}
		return p
	}
	return fixture{name: "cookie-prefixes", g: g, progs: []*openflow.Program{mk("left", 0, 0x8910), mk("right", 1, 0x8920)}}
}

// stateClashFixture: two programs write transitions into the same state
// table, and a third puts flow rules into it.
func stateClashFixture() fixture {
	g := topo.Line(2)
	next := uint64(1)
	mkState := func(name string, slot int) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		p.Ensure(0, g.Degree(0))
		p.AddFlow(0, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: 1,
			Cookie: name + "/dispatch",
		})
		p.AddState(0, 1, &openflow.StateEntry{
			Priority: 10, AnyState: true, Match: openflow.MatchEth(ethA),
			Actions: toController, SetState: &next, Goto: openflow.NoGoto,
			Cookie: name + "/step",
		})
		return p
	}
	p1 := mkState("efsm-one", 0)
	p2 := mkState("efsm-two", 1) // same state table 1 on sw0!

	p3 := openflow.NewProgram("flows", 2)
	p3.Ensure(0, g.Degree(0))
	p3.AddFlow(0, 1, &openflow.FlowEntry{ // dead: table 1 is efsm-one's state table
		Priority: 5, Match: openflow.MatchEth(ethB), Goto: openflow.NoGoto,
		Actions: toController, Cookie: "flows/dead",
	})
	return fixture{name: "state-clash", g: g, progs: []*openflow.Program{p1, p2, p3}}
}

// statefulLoopFixture: an EFSM whose only transition bounces the packet
// back out its ingress port without ever changing state.
func statefulLoopFixture() fixture {
	g := topo.Line(2)
	p := openflow.NewProgram("pingpong", 0)
	for sw := 0; sw < g.NumNodes(); sw++ {
		p.Ensure(sw, g.Degree(sw))
		p.AddFlow(sw, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: 1,
			Cookie: "pingpong/dispatch",
		})
		p.AddState(sw, 1, &openflow.StateEntry{
			Priority: 10, AnyState: true, Match: openflow.MatchEth(ethA).WithInPort(1),
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortInPort}},
			Goto:    openflow.NoGoto,
			Cookie:  "pingpong/bounce",
		})
		p.AddState(sw, 1, &openflow.StateEntry{
			Priority: 1, AnyState: true, Match: openflow.MatchEth(ethA),
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Goto:    openflow.NoGoto,
			Cookie:  "pingpong/start",
		})
	}
	return fixture{name: "stateful-loop", g: g, progs: []*openflow.Program{p}}
}

// stateSlotFixture: a state table outside its program's table range.
func stateSlotFixture() fixture {
	g := topo.Line(2)
	p := openflow.NewProgram("strayefsm", 0)
	p.Ensure(0, g.Degree(0))
	p.AddState(0, 99, &openflow.StateEntry{ // table 99 belongs to slot 9
		Priority: 10, AnyState: true, Match: openflow.MatchEth(ethA),
		Actions: toController, Goto: openflow.NoGoto,
		Cookie: "strayefsm/step",
	})
	return fixture{name: "state-slot-violation", g: g, progs: []*openflow.Program{p},
		opts: verify.Options{SlotTables: slotTens}}
}

// interactionFixture: rules of two programs in one table. "a/broad"
// covers B's "b/narrow" from above; B's "b/masked" is covered first by
// its own broader "b/own" and only then by A's "a/eth-b".
func interactionFixture() fixture {
	g := topo.Line(2)
	f := openflow.Field{Name: "x", Off: 0, Bits: 4}
	a := openflow.NewProgram("svc-a", 0)
	a.Ensure(0, g.Degree(0))
	a.AddFlow(0, 0, &openflow.FlowEntry{Priority: 200, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "a/broad"})
	a.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethB),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "a/eth-b"})
	b := openflow.NewProgram("svc-b", 1)
	b.Ensure(0, g.Degree(0))
	b.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA).WithField(f, 3),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "b/narrow"})
	b.AddFlow(0, 0, &openflow.FlowEntry{Priority: 300, Match: openflow.MatchEth(ethB),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "b/own"})
	b.AddFlow(0, 0, &openflow.FlowEntry{Priority: 50, Match: openflow.MatchEth(ethB).WithField(f, 1),
		Goto: openflow.NoGoto, Actions: toController, Cookie: "b/masked"})
	return fixture{name: "interactions", g: g, progs: []*openflow.Program{a, b}}
}
