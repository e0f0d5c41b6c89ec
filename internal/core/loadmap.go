package core

import (
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EthLoadMap is the load-inference service EtherType.
const EthLoadMap = 0x880A

// LoadMap realizes the paper's closing remark — "the smart counter concept
// introduced in this paper may also be used to infer network loads" — as a
// working service. Every switch port carries a smart counter ticked by
// received data packets. A SmartSouth traversal then sweeps the network;
// on each arrival the receiving switch fetches the port's counter and
// *records the fetched value into the packet* by matching it against
// enumerated rules that push a constant label (the flow-table trick for
// copying a field into the label stack). The root finally punts the packet
// to the controller, which decodes a per-port load map of the entire
// network — two out-of-band messages total.
type LoadMap struct {
	G    *topo.Graph
	L    *Layout
	Tmpl *Template
	Prog *Program
	// Counters[node][port-1] is the per-port ingress data counter.
	Counters [][]*SmartCounter
	// Modulus is the counter size: loads are reported modulo this value.
	Modulus int

	FDst  openflow.Field
	FPort openflow.Field
	FVal  openflow.Field

	ctl ControlPlane
	be  Backend
}

// loadModulus is the counter size; loads are inferred modulo 32.
const loadModulus = 32

func encLoad(node, port, val int) uint32 {
	return uint32(node&0xFFF)<<16 | uint32(port&0xFF)<<8 | uint32(val&0xFF)
}

func decLoad(label uint32) (node, port, val int) {
	return int(label >> 16 & 0xFFF), int(label >> 8 & 0xFF), int(label & 0xFF)
}

// InstallLoadMap compiles and installs the load-inference service,
// including destination-based forwarding for EthData traffic. It must not
// share a network with PktLoss (both own the EthData ingress rules).
func InstallLoadMap(c ControlPlane, g *topo.Graph, slot int, opts ...InstallOption) (*LoadMap, error) {
	cfg := resolveInstall(opts)
	l := cfg.Backend.NewLayout(g)
	lm := &LoadMap{
		G: g, L: l, ctl: c, Modulus: loadModulus, be: cfg.Backend,
		FDst:  l.Alloc("dst", openflow.BitsFor(uint64(g.NumNodes()))),
		FPort: l.Alloc("sample_port", openflow.BitsFor(uint64(g.MaxDegree()))),
		FVal:  l.Alloc("sample_val", openflow.BitsFor(loadModulus-1)),
	}
	base := 1 + slot*10
	preT, recT, t0, tFin, fwdT := base, base+1, base+2, base+3, base+4
	gb := uint32(slot) << 20
	ctrGID := func(port int) uint32 { return gb + 0x80000 + uint32(port) }

	prog := newProgram("loadmap", slot, g, l)

	lm.Counters = make([][]*SmartCounter, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		for p := 1; p <= g.Degree(i); p++ {
			sc, err := CompileSmartCounter(prog, i, g.Degree(i), ctrGID(p), lm.FVal, loadModulus)
			if err != nil {
				return nil, err
			}
			lm.Counters[i] = append(lm.Counters[i], sc)
		}
	}

	lm.Tmpl = &Template{
		G: g, L: l, Eth: EthLoadMap, T0: t0, TFin: tFin, GroupBase: gb,
		Hooks: Hooks{Finish: finishToController},
	}
	if err := cfg.Backend.Lower(lm.Tmpl, prog); err != nil {
		return nil, err
	}

	ethLM := openflow.MatchEth(EthLoadMap)
	ethData := openflow.MatchEth(EthData)
	for i := 0; i < g.NumNodes(); i++ {
		d := g.Degree(i)

		// Monitor dispatch: sample the ingress counter, then record.
		prog.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 101, Match: ethLM, Goto: preT,
			Cookie: fmt.Sprintf("loadmap/n%d/dispatch", i),
		})
		for q := 1; q <= d; q++ {
			prog.AddFlow(i, preT, &openflow.FlowEntry{
				Priority: 200, Match: ethLM.WithInPort(q),
				Actions: []openflow.Action{
					openflow.SetField{F: lm.FPort, Value: uint64(q)},
					openflow.Group{ID: ctrGID(q)},
				},
				Goto:   recT,
				Cookie: fmt.Sprintf("loadmap/n%d/sample-in%d", i, q),
			})
		}
		prog.AddFlow(i, preT, &openflow.FlowEntry{
			Priority: 100, Match: ethLM, Goto: t0,
			Cookie: fmt.Sprintf("loadmap/n%d/inject", i),
		})

		// Record table: enumerate (port, value) pairs and push the
		// matching constant label — the data plane "copies" the fetched
		// counter into the packet.
		for q := 1; q <= d; q++ {
			for x := 0; x < loadModulus; x++ {
				prog.AddFlow(i, recT, &openflow.FlowEntry{
					Priority: 200,
					Match:    ethLM.WithField(lm.FPort, uint64(q)).WithField(lm.FVal, uint64(x)),
					Actions:  []openflow.Action{openflow.PushLabel{Value: encLoad(i, q, x)}},
					Goto:     t0,
					Cookie:   fmt.Sprintf("loadmap/n%d/rec-p%d-v%d", i, q, x),
				})
			}
		}

		// Data plane: ingress counting plus destination forwarding.
		for q := 1; q <= d; q++ {
			prog.AddFlow(i, 0, &openflow.FlowEntry{
				Priority: 90, Match: ethData.WithInPort(q),
				Actions: []openflow.Action{openflow.Group{ID: ctrGID(q)}},
				Goto:    fwdT,
				Cookie:  fmt.Sprintf("loadmap/n%d/data-rx-in%d", i, q),
			})
		}
		prog.AddFlow(i, 0, &openflow.FlowEntry{
			Priority: 80, Match: ethData, Goto: fwdT,
			Cookie: fmt.Sprintf("loadmap/n%d/data-inject", i),
		})
		prog.AddFlow(i, fwdT, &openflow.FlowEntry{
			Priority: 200, Match: ethData.WithField(lm.FDst, uint64(i)),
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
			Goto:    openflow.NoGoto,
			Cookie:  fmt.Sprintf("loadmap/n%d/data-local", i),
		})
	}
	for dst := 0; dst < g.NumNodes(); dst++ {
		next := topo.BFSPaths(g, dst)
		for node, port := range next {
			prog.AddFlow(node, fwdT, &openflow.FlowEntry{
				Priority: 100, Match: ethData.WithField(lm.FDst, uint64(dst)),
				Actions: []openflow.Action{openflow.Output{Port: port}},
				Goto:    openflow.NoGoto,
				Cookie:  fmt.Sprintf("loadmap/n%d/data-to-%d", node, dst),
			})
		}
	}
	if err := installProgram(c, prog); err != nil {
		return nil, err
	}
	lm.Prog = prog
	return lm, nil
}

// Identity claims the data packets its counters tick on as well as its
// sweep.
func (lm *LoadMap) Identity() (*Program, *Layout, []uint16) {
	return lm.Prog, lm.L, []uint16{EthLoadMap, EthData}
}

// SendData injects one data packet at switch from addressed to switch to.
func (lm *LoadMap) SendData(from, to int, at network.Time) {
	pkt := lm.L.NewPacket(EthData)
	pkt.Store(lm.FDst, uint64(to))
	lm.ctl.InjectHost(from, pkt, at)
}

// Monitor launches the load-collection traversal from root.
func (lm *LoadMap) Monitor(root int, at network.Time) {
	resetStateful(lm.ctl, lm.be, lm.Prog)
	lm.ctl.PacketOut(root, openflow.PortController, lm.L.NewPacket(EthLoadMap), at)
}

// PortLoad identifies a sampled port.
type PortLoad struct {
	Node int
	Port int
}

// Loads decodes the collected load map: data packets received per port,
// modulo the counter size. For ports crossed several times by the monitor
// the first sample is kept (later samples are inflated by the monitor's
// own fetches). done reports whether the report packet arrived.
func (lm *LoadMap) Loads() (loads map[PortLoad]int, done bool) {
	for _, pi := range lm.ctl.Inbox() {
		if pi.Pkt.EthType != EthLoadMap {
			continue
		}
		loads = make(map[PortLoad]int)
		for _, lab := range pi.Pkt.Labels {
			node, port, val := decLoad(lab)
			key := PortLoad{Node: node, Port: port}
			if _, dup := loads[key]; !dup {
				loads[key] = val
			}
		}
		return loads, true
	}
	return nil, false
}
