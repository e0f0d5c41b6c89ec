package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Anycast implements §3.2: deliver a packet to *any* member of a receiver
// group, with zero controller interaction. Every node carries one rule per
// group it belongs to, matching the packet's gid field and exiting to the
// SELF port; non-members execute the SmartSouth traversal, so the packet
// sweeps the network until it reaches a reachable member. If no member is
// reachable the traversal completes at the root and the packet is dropped
// (still zero out-of-band messages, per Table 2).
type Anycast struct {
	G      *topo.Graph
	L      *Layout
	Tmpl   *Template
	Prog   *Program
	FGid   openflow.Field
	Groups map[uint32][]int // gid -> member nodes
	ctl    ControlPlane
	be     Backend
}

// InstallAnycast compiles the anycast service with the given group
// membership into a program, statically checks it, and installs it.
func InstallAnycast(c ControlPlane, g *topo.Graph, slot int, groups map[uint32][]int, opts ...InstallOption) (*Anycast, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	a := &Anycast{
		G: g, L: l, FGid: l.Alloc("gid", 16), Groups: groups, ctl: c, be: cfg.Backend,
	}
	t0, tFin, gb := Slot(slot)
	a.Tmpl = &Template{
		G: g, L: l, Eth: EthAnycast, T0: t0, TFin: tFin, GroupBase: gb,
	}
	p := newProgram("anycast", slot, g, l)
	if err := cfg.Backend.Lower(a.Tmpl, p); err != nil {
		return nil, err
	}
	// Receiver exit rules: the "simple test at the beginning of the
	// template". They outrank every traversal rule, so a member delivers
	// locally whether the packet is starting, visiting, or bouncing.
	for gid, members := range groups {
		for _, m := range members {
			if m < 0 || m >= g.NumNodes() {
				return nil, fmt.Errorf("core: anycast member %d out of range", m)
			}
			addT0Rule(p, cfg.Backend, m, t0, &openflow.FlowEntry{
				Priority: PrioService,
				Match:    openflow.MatchEth(EthAnycast).WithField(a.FGid, uint64(gid)),
				Actions:  []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
				Goto:     openflow.NoGoto,
				Cookie:   fmt.Sprintf("anycast/n%d/gid%d/self", m, gid),
			})
		}
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	a.Prog = p
	return a, nil
}

func (a *Anycast) Identity() (*Program, *Layout, []uint16) { return a.Prog, a.L, []uint16{EthAnycast} }

// NewMessage builds an anycast packet for the group, carrying payload.
func (a *Anycast) NewMessage(gid uint32, payload []byte) *openflow.Packet {
	pkt := a.L.NewPacket(a.Tmpl.Eth)
	pkt.Store(a.FGid, uint64(gid))
	pkt.Payload = payload
	return pkt
}

// Send injects an anycast message at switch from — in-band host traffic,
// not a controller message.
func (a *Anycast) Send(from int, gid uint32, payload []byte, at network.Time) {
	resetStateful(a.ctl, a.be, a.Prog)
	a.ctl.InjectHost(from, a.NewMessage(gid, payload), at)
}
