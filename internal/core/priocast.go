package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// PrioMember is one priocast receiver with its priority (higher wins).
type PrioMember struct {
	Node int
	Prio int
}

// Priocast implements the priority-anycast extension of §3.2 with two
// traversal phases carried in the packet's ternary start field:
//
// Phase 1 (start=1) sweeps the whole network; every reachable member
// whose priority beats the packet's current best (opt_val) writes itself
// into opt_id/opt_val — compiled as one rule variant per (group, smaller
// opt_val) pair, the flow-table field-comparison technique. The root
// records its first out-port in firstPort.
//
// Phase 2 (start=2) replays the traversal from firstPort; the recorded
// winner exits to SELF when the packet reaches it. Non-root nodes detect
// the phase switch by a packet arriving on their parent port while their
// cur field equals par (they had finished phase 1).
//
// Out-of-band cost: zero on success; one report if no member is reachable.
type Priocast struct {
	G       *topo.Graph
	L       *Layout
	Tmpl    *Template
	Prog    *Program
	FGid    openflow.Field
	FOptID  openflow.Field // winner node + 1; 0 = none
	FOptVal openflow.Field
	FFirst  openflow.Field
	Groups  map[uint32][]PrioMember
	ctl     ControlPlane
	be      Backend
}

// MaxPrio bounds member priorities (value 1..MaxPrio); the opt_val field
// is sized for it.
const MaxPrio = 15

// InstallPriocast compiles and installs the priocast service.
func InstallPriocast(c ControlPlane, g *topo.Graph, slot int, groups map[uint32][]PrioMember, opts ...InstallOption) (*Priocast, error) {
	for gid, ms := range groups {
		seen := map[int]bool{}
		for _, m := range ms {
			if m.Node < 0 || m.Node >= g.NumNodes() {
				return nil, fmt.Errorf("core: priocast member %d out of range", m.Node)
			}
			if m.Prio < 1 || m.Prio > MaxPrio {
				return nil, fmt.Errorf("core: priority %d outside 1..%d", m.Prio, MaxPrio)
			}
			if seen[m.Node] {
				return nil, fmt.Errorf("core: node %d listed twice in group %d", m.Node, gid)
			}
			seen[m.Node] = true
		}
	}

	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	p := &Priocast{
		G: g, L: l, Groups: groups, ctl: c, be: cfg.Backend,
		FGid:    l.Alloc("gid", 16),
		FOptID:  l.Alloc("opt_id", openflow.BitsFor(uint64(g.NumNodes()))),
		FOptVal: l.Alloc("opt_val", openflow.BitsFor(MaxPrio)),
		FFirst:  l.Alloc("first_port", openflow.BitsFor(uint64(g.MaxDegree()))),
	}
	t0, tFin, gb := Slot(slot)

	memberships := make(map[int][]struct {
		gid  uint32
		prio int
	})
	for gid, ms := range groups {
		for _, m := range ms {
			memberships[m.Node] = append(memberships[m.Node], struct {
				gid  uint32
				prio int
			}{gid, m.Prio})
		}
	}

	p.Tmpl = &Template{
		G: g, L: l, Eth: EthPriocast, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{
			// Record the root's first out-port for the phase-2 restart.
			SendNext: func(node, s, par, out int) []openflow.Action {
				if par == 0 && s == 1 {
					return []openflow.Action{openflow.SetField{F: p.FFirst, Value: uint64(out)}}
				}
				return nil
			},
			// Phase-1 member update: if this node's priority for the
			// packet's group beats opt_val, become the current best.
			FirstVisit: func(node, in int) []Variant {
				var vs []Variant
				for _, mb := range memberships[node] {
					for w := 0; w < mb.prio; w++ {
						vs = append(vs, Variant{
							Match: []openflow.FieldMatch{
								{F: p.FGid, Value: uint64(mb.gid)},
								{F: p.FOptVal, Value: uint64(w)},
							},
							Do: []openflow.Action{
								openflow.SetField{F: p.FOptVal, Value: uint64(mb.prio)},
								openflow.SetField{F: p.FOptID, Value: uint64(node + 1)},
							},
						})
					}
				}
				return vs
			},
		},
	}
	prog := newProgram("priocast", slot, g, l)
	if err := cfg.Backend.Lower(p.Tmpl, prog); err != nil {
		return nil, err
	}

	stateful := cfg.Backend.Stateful()
	eth := openflow.MatchEth(EthPriocast)
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)
		S := l.Start

		// Phase 2, winner exit: outranks everything else.
		addT0Rule(prog, cfg.Backend, i, t0, &openflow.FlowEntry{
			Priority: PrioService + 20,
			Match:    eth.WithField(S, 2).WithField(p.FOptID, uint64(i+1)),
			Actions:  []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
			Goto:     openflow.NoGoto,
			Cookie:   fmt.Sprintf("priocast/n%d/winner", i),
		})
		if stateful {
			// Phase 2 under the stateful backend. A finish-table flow rule
			// cannot write switch state, so the root keeps state 0 through
			// phase 2 and the phase-2 restart outputs the recorded first
			// port directly; elevated-priority transitions then advance the
			// root's scan purely on the return port (a DFS probe always
			// returns on the port it left by), declining to touch state so
			// a later run still finds the root in its start state.
			B := openflow.BitsFor(uint64(d))
			st := func(par, cur int) uint64 { return uint64(par)<<B | uint64(cur) }
			// Phase-2 entry at a finished non-root node: restart the scan
			// from port 1, exactly what AdvGroup(i, 1, par) does under OF13.
			for par := 1; par <= d; par++ {
				next := 0
				for k := 1; k <= d; k++ {
					if k != par {
						next = k
						break
					}
				}
				out, set := par, st(par, par)
				if next > 0 {
					out, set = next, st(par, next)
				}
				sv := set
				prog.AddState(i, t0, &openflow.StateEntry{
					Priority: PrioService + 10,
					State:    st(par, par),
					Match:    eth.WithField(S, 2).WithInPort(par),
					Actions:  []openflow.Action{openflow.Output{Port: out}},
					SetState: &sv, Goto: openflow.NoGoto,
					Cookie: fmt.Sprintf("priocast/n%d/phase2-entry-p%d", i, par),
				})
			}
			// Root phase-2 advance: the first_port field doubles as the
			// root's scan cursor (the tFin restart rule cannot write switch
			// state, so the cursor rides in the packet — the same job of13's
			// cur bits do). A return on the cursor port advances the scan; an
			// arrival on any other port is a cross-edge probe from inside a
			// subtree and bounces, mirroring of13's PrioNew rule at the root.
			for k := 1; k <= d; k++ {
				e := &openflow.StateEntry{
					Priority: PrioFirst + 100,
					Match:    eth.WithField(S, 2).WithInPort(k).WithField(p.FFirst, uint64(k)),
					Goto:     openflow.NoGoto,
					Cookie:   fmt.Sprintf("priocast/n%d/phase2-root-in%d", i, k),
				}
				if k < d {
					e.Actions = []openflow.Action{
						openflow.SetField{F: p.FFirst, Value: uint64(k + 1)},
						openflow.Output{Port: k + 1},
					}
				} else {
					e.Goto = tFin
				}
				prog.AddState(i, t0, e)
			}
			prog.AddState(i, t0, &openflow.StateEntry{
				Priority: PrioFirst + 50,
				Match:    eth.WithField(S, 2),
				Actions:  []openflow.Action{openflow.Output{Port: openflow.PortInPort}},
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("priocast/n%d/phase2-root-bounce", i),
			})
		} else {
			// Phase-2 entry: packet from the parent while finished — restart
			// this node's scan from port 1.
			P, C := l.Par[i], l.Cur[i]
			for par := 1; par <= d; par++ {
				prog.AddFlow(i, t0, &openflow.FlowEntry{
					Priority: PrioService + 10,
					Match: eth.WithField(S, 2).WithInPort(par).
						WithField(P, uint64(par)).WithField(C, uint64(par)),
					Actions: []openflow.Action{openflow.Group{ID: p.Tmpl.AdvGroup(i, 1, par)}},
					Goto:    tFin,
					Cookie:  fmt.Sprintf("priocast/n%d/phase2-entry-p%d", i, par),
				})
			}
		}

		finBase := eth
		if !stateful {
			finBase = eth.WithField(l.Cur[i], 0).WithField(l.Par[i], 0)
		}
		// Phase-1 finish at a member root that beats the recorded best:
		// the root itself is the winner; deliver locally.
		for _, mb := range memberships[i] {
			for w := 0; w < mb.prio; w++ {
				prog.AddFlow(i, tFin, &openflow.FlowEntry{
					Priority: PrioFinish + 60,
					Match: finBase.WithField(S, 1).
						WithField(p.FGid, uint64(mb.gid)).WithField(p.FOptVal, uint64(w)),
					Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
					Goto:    openflow.NoGoto,
					Cookie:  fmt.Sprintf("priocast/n%d/root-wins-g%d-w%d", i, mb.gid, w),
				})
			}
		}
		// Phase-1 finish with no receiver at all: report to controller.
		prog.AddFlow(i, tFin, &openflow.FlowEntry{
			Priority: PrioFinish + 50,
			Match:    finBase.WithField(S, 1).WithField(p.FOptID, 0),
			Actions:  []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Goto:     openflow.NoGoto,
			Cookie:   fmt.Sprintf("priocast/n%d/no-receiver", i),
		})
		// Phase-1 finish, winner elsewhere: flip to phase 2 and restart
		// the traversal from the recorded first port. Under the stateful
		// backend the restart outputs the first port directly (the root's
		// phase-2 transitions above take over from the return).
		for k := 1; k <= d; k++ {
			restart := []openflow.Action{openflow.SetField{F: S, Value: 2}}
			if stateful {
				restart = append(restart, openflow.Output{Port: k})
			} else {
				restart = append(restart, openflow.Group{ID: p.Tmpl.AdvGroup(i, k, 0)})
			}
			prog.AddFlow(i, tFin, &openflow.FlowEntry{
				Priority: PrioFinish + 30,
				Match:    finBase.WithField(S, 1).WithField(p.FFirst, uint64(k)),
				Actions:  restart,
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("priocast/n%d/phase2-start-k%d", i, k),
			})
		}
		// Phase-2 finish without delivery: the winner became unreachable.
		prog.AddFlow(i, tFin, &openflow.FlowEntry{
			Priority: PrioFinish + 20,
			Match:    finBase.WithField(S, 2),
			Actions:  []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Goto:     openflow.NoGoto,
			Cookie:   fmt.Sprintf("priocast/n%d/phase2-failed", i),
		})
	}
	if err := installProgram(c, prog); err != nil {
		return nil, err
	}
	p.Prog = prog
	return p, nil
}

func (p *Priocast) Identity() (*Program, *Layout, []uint16) {
	return p.Prog, p.L, []uint16{EthPriocast}
}

// Send injects a priocast message at switch from (in-band host traffic).
func (p *Priocast) Send(from int, gid uint32, payload []byte, at network.Time) {
	resetStateful(p.ctl, p.be, p.Prog)
	pkt := p.L.NewPacket(p.Tmpl.Eth)
	pkt.Store(p.FGid, uint64(gid))
	pkt.Payload = payload
	p.ctl.InjectHost(from, pkt, at)
}

// FailureReported reports whether the controller received a priocast
// failure notice (no receiver, or winner unreachable in phase 2).
func (p *Priocast) FailureReported() bool {
	for _, pi := range p.ctl.Inbox() {
		if pi.Pkt.EthType == p.Tmpl.Eth {
			return true
		}
	}
	return false
}
