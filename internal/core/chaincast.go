package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthChaincast is the chaincast service EtherType.
const EthChaincast = 0x8809

// Chaincast implements the service-chaining extension sketched in §3.2:
// "Anycasts can easily be chained, in the sense that sequences of
// middleboxes can be specified which need to be traversed."
//
// A chain is an ordered list of node groups (e.g. firewalls, then DPI
// boxes, then the egress proxies). The packet performs one SmartSouth
// anycast sweep per stage: when it reaches any member of the current
// stage's group, a copy is delivered to the local middlebox, the packet's
// stage counter advances, and a *fresh* traversal for the next stage
// starts from that member — each stage has its own start/par/cur state in
// the tag, so stages never interfere. The whole chain needs zero
// controller messages and at most stages·(4E−2n+2) in-band messages.
type Chaincast struct {
	G      *topo.Graph
	L      *Layout
	Chain  [][]int
	FStage openflow.Field
	Stages []*Template
	Prog   *Program
	ctl    ControlPlane
	be     Backend
}

// InstallChaincast compiles and installs a chaincast over the given chain
// of middlebox groups. It consumes one service slot per stage, starting
// at slotBase.
func InstallChaincast(c ControlPlane, g *topo.Graph, slotBase int, chain [][]int, opts ...InstallOption) (*Chaincast, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("core: empty chain")
	}
	for s, members := range chain {
		if len(members) == 0 {
			return nil, fmt.Errorf("core: chain stage %d has no members", s)
		}
		for _, m := range members {
			if m < 0 || m >= g.NumNodes() {
				return nil, fmt.Errorf("core: chain stage %d member %d out of range", s, m)
			}
		}
	}

	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	cc := &Chaincast{
		G: g, L: l, Chain: chain, ctl: c, be: cfg.Backend,
		FStage: l.Alloc("stage", openflow.BitsFor(uint64(len(chain)))),
	}

	// Stage 0 uses the layout's base DFS state; later stages allocate
	// their own.
	type state struct {
		start    openflow.Field
		par, cur []openflow.Field
	}
	states := []state{{l.Start, l.Par, l.Cur}}
	for s := 1; s < len(chain); s++ {
		st, par, cur := l.NewStage(fmt.Sprintf("s%d", s))
		states = append(states, state{st, par, cur})
	}

	p := newProgram("chaincast", slotBase, g, l)
	p.Slots = len(chain)

	// One template per stage, dispatched on (EthType, stage).
	var t0s []int
	for s := range chain {
		t0, tFin, gb := Slot(slotBase + s)
		t0s = append(t0s, t0)
		tmpl := &Template{
			G: g, L: l, Eth: EthChaincast, T0: t0, TFin: tFin, GroupBase: gb,
			StateStart:     states[s].start,
			StatePar:       states[s].par,
			StateCur:       states[s].cur,
			DispatchFields: []openflow.FieldMatch{{F: cc.FStage, Value: uint64(s)}},
		}
		if err := cfg.Backend.Lower(tmpl, p); err != nil {
			return nil, err
		}
		cc.Stages = append(cc.Stages, tmpl)
	}

	// Member exit/advance rules: deliver a copy to the local middlebox
	// and, unless this is the last stage, hand the packet straight into
	// the next stage's entry table with the stage counter bumped.
	for s, members := range chain {
		for _, m := range members {
			actions := []openflow.Action{openflow.Output{Port: openflow.PortSelf}}
			gotoT := openflow.NoGoto
			if s+1 < len(chain) {
				actions = append(actions, openflow.SetField{F: cc.FStage, Value: uint64(s + 1)})
				gotoT = t0s[s+1]
			}
			addT0Rule(p, cfg.Backend, m, t0s[s], &openflow.FlowEntry{
				Priority: PrioService,
				Match:    openflow.MatchEth(EthChaincast),
				Actions:  actions,
				Goto:     gotoT,
				Cookie:   fmt.Sprintf("chaincast/n%d/stage%d", m, s),
			})
		}
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	cc.Prog = p
	return cc, nil
}

func (cc *Chaincast) Identity() (*Program, *Layout, []uint16) {
	return cc.Prog, cc.L, []uint16{EthChaincast}
}

// Send injects a chain packet at switch from (in-band host traffic). The
// packet will visit one member of every stage group, in order.
func (cc *Chaincast) Send(from int, payload []byte, at network.Time) {
	resetStateful(cc.ctl, cc.be, cc.Prog)
	pkt := cc.L.NewPacket(EthChaincast)
	pkt.Payload = payload
	cc.ctl.InjectHost(from, pkt, at)
}
