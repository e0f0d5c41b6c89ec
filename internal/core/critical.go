package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Critical implements §3.4: a node checks in the data plane whether its
// removal would partition the network (i.e. whether it is an articulation
// point), e.g. before being switched off for maintenance or energy saving.
//
// Mechanism: the controller triggers the traversal at the node under test
// (the DFS root). The root remembers its first out-port in firstPort.
// Every node sets the packet's toParent bit when returning to its DFS
// parent and every parent clears it after inspection. If the root ever
// receives toParent=1 on a port other than firstPort, a second subtree
// chose the root as its parent — which only happens when the root bridges
// otherwise-disconnected parts — so the root reports "critical" and stops.
// If the traversal completes without that, the root reports "not
// critical". Cost: 2 out-of-band messages, one DFS sweep in-band.
type Critical struct {
	G      *topo.Graph
	L      *Layout
	Tmpl   *Template
	Prog   *Program
	FFirst openflow.Field
	FToPar openflow.Field
	FVerd  openflow.Field
	ctl    ControlPlane
	be     Backend
}

// Verdict values carried in the report packet's verdict field.
const (
	verdictNone        = 0
	verdictCritical    = 1
	verdictNotCritical = 2
)

// InstallCritical compiles and installs the critical-node service; any
// node can subsequently be asked to check itself.
func InstallCritical(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*Critical, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	cr := &Critical{
		G: g, L: l, ctl: c, be: cfg.Backend,
		FFirst: l.Alloc("first_port", openflow.BitsFor(uint64(g.MaxDegree()))),
		FToPar: l.Alloc("to_parent", 1),
		FVerd:  l.Alloc("verdict", 2),
	}
	t0, tFin, gb := Slot(slot)
	cr.Tmpl = &Template{
		G: g, L: l, Eth: EthCritical, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{
			// The root records its first out-port.
			SendNext: func(node, s, par, out int) []openflow.Action {
				if par == 0 && s == 1 {
					return []openflow.Action{openflow.SetField{F: cr.FFirst, Value: uint64(out)}}
				}
				return nil
			},
			// Returning to the parent raises toParent.
			SendParent: func(node, par int) []openflow.Action {
				return []openflow.Action{openflow.SetField{F: cr.FToPar, Value: 1}}
			},
			// Expected returns inspect toParent. Non-root parents just
			// clear it. The root compares the port to firstPort: a
			// toParent return on any other port is the criticality
			// witness.
			FromCur: func(node, cur, par int) []Variant {
				if par != 0 {
					return []Variant{{
						Match: []openflow.FieldMatch{{F: cr.FToPar, Value: 1}},
						Do:    []openflow.Action{openflow.SetField{F: cr.FToPar, Value: 0}},
					}}
				}
				d := cr.G.Degree(node)
				var vs []Variant
				for w := 1; w <= d; w++ {
					if w == cur {
						// The firstPort subtree returning: expected.
						vs = append(vs, Variant{
							Match: []openflow.FieldMatch{
								{F: cr.FToPar, Value: 1}, {F: cr.FFirst, Value: uint64(w)}},
							Do: []openflow.Action{openflow.SetField{F: cr.FToPar, Value: 0}},
						})
						continue
					}
					vs = append(vs, Variant{
						Match: []openflow.FieldMatch{
							{F: cr.FToPar, Value: 1}, {F: cr.FFirst, Value: uint64(w)}},
						Terminal: true,
						Do: []openflow.Action{
							openflow.SetField{F: cr.FVerd, Value: verdictCritical},
							openflow.Output{Port: openflow.PortController},
						},
					})
				}
				return vs
			},
			// Traversal completed without a witness: not critical.
			Finish: func(node int) []openflow.Action {
				return []openflow.Action{
					openflow.SetField{F: cr.FVerd, Value: verdictNotCritical},
					openflow.Output{Port: openflow.PortController},
				}
			},
		},
	}
	p := newProgram("critical", slot, g, l)
	if err := cfg.Backend.Lower(cr.Tmpl, p); err != nil {
		return nil, err
	}
	if err := installProgram(c, p); err != nil {
		return nil, err
	}
	cr.Prog = p
	return cr, nil
}

func (cr *Critical) Identity() (*Program, *Layout, []uint16) {
	return cr.Prog, cr.L, []uint16{EthCritical}
}

// Check asks node to test its own criticality (one out-of-band message).
func (cr *Critical) Check(node int, at network.Time) {
	resetStateful(cr.ctl, cr.be, cr.Prog)
	cr.ctl.PacketOut(node, openflow.PortController, cr.L.NewPacket(cr.Tmpl.Eth), at)
}

// Verdict scans the controller inbox for this service's report. ok is
// false while no report has arrived.
func (cr *Critical) Verdict() (critical, ok bool) {
	for _, pi := range cr.ctl.Inbox() {
		if pi.Pkt.EthType != cr.Tmpl.Eth {
			continue
		}
		switch pi.Pkt.Load(cr.FVerd) {
		case verdictCritical:
			return true, true
		case verdictNotCritical:
			return false, true
		}
	}
	return false, false
}

// String describes the service for diagnostics.
func (cr *Critical) String() string {
	return fmt.Sprintf("critical-node service on %d nodes", cr.G.NumNodes())
}
