package core

import (
	"fmt"
	"slices"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthSnapSplit is the EtherType of the splitting snapshot service.
const EthSnapSplit = 0x880B

// SnapshotSplit implements the paper's §3.1 remark in the data plane:
//
//	"If the snapshot of a large network does not fit into a single
//	packet, data plane mechanisms can be implemented to split a packet
//	into multiple smaller ones. All we have to do is to track the amount
//	of data gathered so far (e.g. using special counter) and, when
//	needed, we send the packet to the controller."
//
// The record counter is a packet field incremented by the classic
// flow-table trick (one rule per counter value); when a *safe* record push
// would reach the budget, the rule emits a copy of the packet — carrying
// the records gathered so far — to the controller and then strips exactly
// that many labels off the live packet (a constant list of pop actions per
// counter value), so the traversal continues with an empty record stack.
//
// "Safe" pushes are the record kinds that are never popped again
// (NODE, BOUNCE, UP); OUT records may be cancelled by the receiver's pop,
// so fragments never break between an OUT record and its possible pop —
// which also guarantees the counter stays within budget+2.
//
// The requester simply concatenates the fragments (they arrive in order
// on the controller channel) with the final report and feeds the result
// to the ordinary snapshot decoder.
type SnapshotSplit struct {
	G      *topo.Graph
	L      *Layout
	Tmpl   *Template
	Prog   *Program
	Budget int
	FCnt   openflow.Field
	FOut   openflow.Field
	FUp    openflow.Field // stateful backend only: 1 = parent return
	ctl    ControlPlane
	be     Backend
}

// InstallSnapshotSplit compiles and installs the splitting snapshot with
// the given per-fragment record budget (>= 4).
func InstallSnapshotSplit(c ControlPlane, g *topo.Graph, slot, budget int, opts ...InstallOption) (*SnapshotSplit, error) {
	if budget < 4 {
		return nil, fmt.Errorf("core: snapshot budget must be >= 4, got %d", budget)
	}
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	s := &SnapshotSplit{
		G: g, L: l, ctl: c, Budget: budget, be: cfg.Backend,
		FCnt: l.Alloc("rec_cnt", openflow.BitsFor(uint64(budget+2))),
		FOut: l.Alloc("out_port", openflow.BitsFor(uint64(g.MaxDegree()))),
	}
	if cfg.Backend.Stateful() {
		// The finish-table up-k rules cannot read the parent out of switch
		// state, so the lowering flags parent returns in a packet bit.
		s.FUp = l.Alloc("up", 1)
	}
	t0, tFin, gb := Slot(slot)

	// pushRecord returns the actions of a record push at a safe site when
	// the counter reads x: push the record, and either increment the
	// counter or — when the budget is reached — flush a fragment to the
	// controller and strip the live packet. The list has room for one more
	// action.
	pushRecord := func(label uint32, x int) []openflow.Action {
		do := make([]openflow.Action, 0, x+5)
		do = append(do, openflow.PushLabel{Value: label})
		if x+1 < budget {
			return append(do, openflow.SetField{F: s.FCnt, Value: uint64(x + 1)})
		}
		do = append(do, openflow.Output{Port: openflow.PortController})
		for j := 0; j < x+1; j++ {
			do = append(do, openflow.PopLabel{})
		}
		return append(do, openflow.SetField{F: s.FCnt, Value: 0})
	}
	// cntIs[x] is the criteria list rec_cnt = x. The compiler copies what
	// it keeps of a hook's result, so every variant testing x shares it.
	cntIs := make([][]openflow.FieldMatch, budget+3)
	for x := range cntIs {
		cntIs[x] = []openflow.FieldMatch{{F: s.FCnt, Value: uint64(x)}}
	}
	// safePush returns one variant per possible counter value.
	safePush := func(label uint32) []Variant {
		vs := make([]Variant, budget+2)
		for x := range vs {
			vs[x] = Variant{Match: cntIs[x], Do: pushRecord(label, x)}
		}
		return vs
	}
	// A bounce onto a visited node cancels the sender's OUT record (it is
	// still on top of the stack: OUT sites never flush) and decrements.
	// Nothing here names the node or the port, so every call returns the
	// same variants.
	bounceSeen := make([]Variant, budget+2)
	for i := range bounceSeen {
		x := i + 1
		bounceSeen[i] = Variant{
			Match: cntIs[x],
			Do: []openflow.Action{
				openflow.PopLabel{},
				openflow.SetField{F: s.FCnt, Value: uint64(x - 1)},
			},
		}
	}

	s.Tmpl = &Template{
		G: g, L: l, Eth: EthSnapSplit, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{
			DeferOutput: true, OutField: s.FOut, UpField: s.FUp,
			RootStart: func(node int) []openflow.Action {
				return []openflow.Action{
					openflow.PushLabel{Value: encRec(recNode, node, 0)},
					openflow.SetField{F: s.FCnt, Value: 1},
				}
			},
			FirstVisit: func(node, in int) []Variant {
				return safePush(encRec(recNode, node, in))
			},
			BounceSplit: true,
			BounceSeen: func(node, in int) []Variant {
				return bounceSeen
			},
			BounceNew: func(node, in int) []Variant {
				return safePush(encRec(recBounce, node, in))
			},
			Finish: finishToController,
		},
	}
	p := newProgram("snapsplit", slot, g, l)
	if err := cfg.Backend.Lower(s.Tmpl, p); err != nil {
		return nil, err
	}

	// Deferred-output decision table: parent returns (out_port equals the
	// packet's parent field under OF13, the up flag under the stateful
	// backend) push an UP record (safe site), everything else is an
	// advance pushing an OUT record (never flushed).
	//
	// Neither rule's actions name the node, and only the OF13 parent-return
	// match does, so every node's rules for (port k, counter x) point at
	// one action list — and, where the match allows, one criteria list —
	// built here once. A node's entries and remaining criteria come out of
	// one allocation each.
	per := budget + 2 // counter values 0..budget+1
	at := func(k, x int) int { return (k-1)*per + x }
	maxD := g.MaxDegree()
	upActs := make([][]openflow.Action, maxD*per)
	outActs := make([][]openflow.Action, maxD*per)
	outCrit := make([]openflow.FieldMatch, 0, 2*maxD*per)
	for k := 1; k <= maxD; k++ {
		for x := 0; x < per; x++ {
			// Parent return: push UP, maybe flush, then forward.
			upActs[at(k, x)] = append(pushRecord(encRec(recUp, 0, 0), x), openflow.Output{Port: k})
			// Advance: push OUT and increment, never flush.
			outActs[at(k, x)] = []openflow.Action{
				openflow.PushLabel{Value: encRec(recOut, 0, k)},
				openflow.SetField{F: s.FCnt, Value: uint64(x + 1)},
				openflow.Output{Port: k},
			}
			outCrit = append(outCrit, eq(s.FOut, k), eq(s.FCnt, x))
		}
	}
	// upCriteria lists the parent-return criteria for ports 1..d, three
	// per (k, x): out_port = k, the backend's is-parent test, rec_cnt = x.
	upCriteria := func(d int, isParent func(k int) openflow.FieldMatch) []openflow.FieldMatch {
		crit := make([]openflow.FieldMatch, 0, 3*d*per)
		for k := 1; k <= d; k++ {
			for x := 0; x < per; x++ {
				crit = append(crit, eq(s.FOut, k), isParent(k), eq(s.FCnt, x))
			}
		}
		return crit
	}
	var upCrit []openflow.FieldMatch
	if cfg.Backend.Stateful() {
		upCrit = upCriteria(maxD, func(int) openflow.FieldMatch { return eq(s.FUp, 1) })
	}
	eth := openflow.MatchEth(EthSnapSplit)
	var cookies cookieSlab
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)
		if !cfg.Backend.Stateful() {
			upCrit = upCriteria(d, func(k int) openflow.FieldMatch { return eq(l.Par[i], k) })
		}
		sp := p.At(i)
		sp.Flows = slices.Grow(sp.Flows, 2*d*per)
		entries := make([]openflow.FlowEntry, 2*d*per)
		prefix := fmt.Sprintf("snapsplit/n%d/", i)
		for k := 1; k <= d; k++ {
			for x := 0; x < per; x++ {
				n := at(k, x)
				up, out := &entries[2*n], &entries[2*n+1]
				*up = openflow.FlowEntry{
					Priority: PrioFinish + 60, Match: eth,
					Actions: upActs[n], Goto: openflow.NoGoto,
					Cookie: cookies.cut(prefix, "up-k", k, "-x", x),
				}
				up.Match.Fields = upCrit[3*n : 3*n+3 : 3*n+3]
				*out = openflow.FlowEntry{
					Priority: PrioFinish + 40, Match: eth,
					Actions: outActs[n], Goto: openflow.NoGoto,
					Cookie: cookies.cut(prefix, "out-k", k, "-x", x),
				}
				out.Match.Fields = outCrit[2*n : 2*n+2 : 2*n+2]
				p.AddFlow(i, tFin, up)
				p.AddFlow(i, tFin, out)
			}
		}
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	s.Prog = p
	return s, nil
}

func (s *SnapshotSplit) Identity() (*Program, *Layout, []uint16) {
	return s.Prog, s.L, []uint16{EthSnapSplit}
}

// Trigger requests a split snapshot starting at switch root.
func (s *SnapshotSplit) Trigger(root int, at network.Time) {
	resetStateful(s.ctl, s.be, s.Prog)
	s.ctl.PacketOut(root, openflow.PortController, s.L.NewPacket(s.Tmpl.Eth), at)
}

// Collect concatenates the fragments and the final report in arrival
// order and decodes them. fragments reports how many packets the snapshot
// was split into (including the final one).
func (s *SnapshotSplit) Collect() (res *Result, fragments int, err error) {
	var labels []uint32
	for _, pi := range s.ctl.Inbox() {
		if pi.Pkt.EthType != s.Tmpl.Eth {
			continue
		}
		fragments++
		labels = append(labels, pi.Pkt.Labels...)
	}
	if fragments == 0 {
		return nil, 0, nil
	}
	res, err = DecodeRecords(labels)
	return res, fragments, err
}
