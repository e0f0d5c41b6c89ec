package core

import (
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// finishToController is the minimal Finish hook: punt the trigger packet
// to the controller as the completion report.
func finishToController(int) []openflow.Action {
	return []openflow.Action{openflow.Output{Port: openflow.PortController}}
}

// Default EtherTypes for the service instances. They only need to be
// distinct per network; use the With… options to override.
const (
	EthTraversal = 0x8801
	EthSnapshot  = 0x8802
	EthAnycast   = 0x8803
	EthPriocast  = 0x8804
	EthBlackhole = 0x8805
	EthCritical  = 0x8806
	EthPktLoss   = 0x8807
)

// Traversal is the bare SmartSouth template: an in-band DFS sweep whose
// only service behaviour is reporting completion to the controller. It
// doubles as a data-plane liveness check ("did the trigger packet come
// back?") and as the substrate the tests validate against the golden
// model.
type Traversal struct {
	G    *topo.Graph
	L    *Layout
	Tmpl *Template
	Prog *Program
	ctl  ControlPlane
	be   Backend
}

// InstallTraversal compiles the bare template at the given service slot
// into a program, statically checks it, and installs it.
func InstallTraversal(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*Traversal, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	t0, tFin, gb := Slot(slot)
	tr := &Traversal{G: g, L: l, ctl: c, be: cfg.Backend}
	tr.Tmpl = &Template{
		G: g, L: l, Eth: EthTraversal, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{Finish: finishToController},
	}
	p := newProgram("traversal", slot, g, l)
	if err := cfg.Backend.Lower(tr.Tmpl, p); err != nil {
		return nil, err
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	tr.Prog = p
	return tr, nil
}

func (tr *Traversal) Identity() (*Program, *Layout, []uint16) {
	return tr.Prog, tr.L, []uint16{EthTraversal}
}

// Trigger injects the trigger packet at switch root (one out-of-band
// message). The traversal starts there.
func (tr *Traversal) Trigger(root int, at network.Time) {
	resetStateful(tr.ctl, tr.be, tr.Prog)
	pkt := tr.L.NewPacket(tr.Tmpl.Eth)
	tr.ctl.PacketOut(root, openflow.PortController, pkt, at)
}

// Completed reports whether a finish report for this service has arrived
// at the controller.
func (tr *Traversal) Completed() bool {
	for _, pi := range tr.ctl.Inbox() {
		if pi.Pkt.EthType == tr.Tmpl.Eth {
			return true
		}
	}
	return false
}
