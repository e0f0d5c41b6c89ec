package controller

import (
	"encoding/binary"
	"fmt"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// EtherTypes used by the baseline controller applications.
const (
	// EthLLDP marks out-of-band discovery probes (the real LLDP type).
	EthLLDP = 0x88CC
	// EthProbe marks per-link blackhole probes.
	EthProbe = 0x88B6
	// EthData marks host data packets used by the reactive baseline.
	EthData = 0x0800
)

// fDataFlow is the flow identifier field reactive forwarding matches on;
// data packets carry a 4-byte tag holding it.
var fDataFlow = openflow.Field{Name: "flow", Off: 0, Bits: 32}

// baselineProgram starts the program of one baseline-application install.
// Transient: baseline rules occupy no service slot, so Programs() and the
// rule-space accounting read off it never see them. The callers put one
// table-0 rule on each switch they touch, so InstallProgram counts one
// flow-mod and one install message per rule.
func baselineProgram(service string) *openflow.Program {
	p := openflow.NewProgram(service, 0)
	p.Transient = true
	return p
}

// addRule puts one table-0 rule for switch sw into p.
func (c *Controller) addRule(p *openflow.Program, sw int, e *openflow.FlowEntry) {
	p.Ensure(sw, c.Net.Switch(sw).NumPorts)
	p.AddFlow(sw, 0, e)
}

// InstallPuntRules installs, on every switch, a rule punting the given
// EtherType to the controller. Out-of-band discovery requires a working
// control channel to *every* switch — exactly the assumption SmartSouth
// drops — so this is part of every baseline's setup.
func (c *Controller) InstallPuntRules(ethType uint16, priority int) {
	cookie := fmt.Sprintf("punt-%#04x", ethType)
	p := baselineProgram(cookie)
	for sw := 0; sw < c.Net.NumSwitches(); sw++ {
		c.addRule(p, sw, &openflow.FlowEntry{
			Priority: priority,
			Match:    openflow.MatchEth(ethType),
			Actions:  []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Goto:     openflow.NoGoto,
			Cookie:   cookie,
		})
	}
	c.InstallProgram(p)
}

func encodeProbe(sw, port int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b[0:4], uint32(sw))
	binary.BigEndian.PutUint32(b[4:8], uint32(port))
	return b
}

func decodeProbe(b []byte) (sw, port int, ok bool) {
	if len(b) < 8 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint32(b[0:4])), int(binary.BigEndian.Uint32(b[4:8])), true
}

// DiscoverTopology is the out-of-band baseline the snapshot service
// competes with (the paper cites Floodlight's TopologyService): the
// controller sends one LLDP probe out of every port of every switch and
// pairs the resulting packet-ins into links. It returns the discovered
// edges. Cost: 2E packet-outs + up to 2E packet-ins, and it silently
// misses everything behind a switch whose control channel is down —
// whereas the in-band snapshot only needs to reach one switch.
//
// The caller must have run InstallPuntRules(EthLLDP, …) and should measure
// via Stats deltas around the call + Net.Run().
func (c *Controller) DiscoverTopology(start network.Time) *TopologyCollector {
	tc := &TopologyCollector{seen: make(map[[2]int]topo.Edge)}
	prev := c.OnPacketIn
	c.OnPacketIn = func(pi PacketIn) {
		if prev != nil {
			prev(pi)
		}
		if pi.Pkt.EthType != EthLLDP {
			return
		}
		u, p, ok := decodeProbe(pi.Pkt.Payload)
		if !ok {
			return
		}
		tc.add(topo.Edge{U: u, PU: p, V: pi.Switch, PV: pi.Pkt.InPort})
	}
	for sw := 0; sw < c.Net.NumSwitches(); sw++ {
		for p := 1; p <= c.Net.Switch(sw).NumPorts; p++ {
			pkt := openflow.NewPacket(EthLLDP, 0)
			pkt.Payload = encodeProbe(sw, p)
			c.PacketOutActions(sw, []openflow.Action{openflow.Output{Port: p}}, pkt, start)
		}
	}
	return tc
}

// TopologyCollector accumulates discovered edges.
type TopologyCollector struct {
	seen map[[2]int]topo.Edge
}

func (tc *TopologyCollector) add(e topo.Edge) {
	key := [2]int{e.U, e.V}
	if e.V < e.U {
		key = [2]int{e.V, e.U}
	}
	if _, dup := tc.seen[key]; !dup {
		tc.seen[key] = e
	}
}

// Edges returns the discovered links.
//
//simlint:testapi the LLDP baseline benchmark and tests check that discovery is complete
func (tc *TopologyCollector) Edges() []topo.Edge {
	out := make([]topo.Edge, 0, len(tc.seen))
	for _, e := range tc.seen {
		out = append(out, e)
	}
	return out
}

// ProbeLinks is the controller-driven blackhole baseline: one probe per
// directed link; directions whose probe never returns are suspects.
// Cost: 2E packet-outs + up to 2E packet-ins per detection round, against
// the smart-counter service's 3 out-of-band messages.
func (c *Controller) ProbeLinks(start network.Time) *ProbeCollector {
	pc := &ProbeCollector{expected: make(map[[2]int]bool)}
	prev := c.OnPacketIn
	c.OnPacketIn = func(pi PacketIn) {
		if prev != nil {
			prev(pi)
		}
		if pi.Pkt.EthType != EthProbe {
			return
		}
		if u, p, ok := decodeProbe(pi.Pkt.Payload); ok {
			delete(pc.expected, [2]int{u, p})
		}
	}
	for sw := 0; sw < c.Net.NumSwitches(); sw++ {
		for p := 1; p <= c.Net.Switch(sw).NumPorts; p++ {
			pc.expected[[2]int{sw, p}] = true
			pkt := openflow.NewPacket(EthProbe, 0)
			pkt.Payload = encodeProbe(sw, p)
			c.PacketOutActions(sw, []openflow.Action{openflow.Output{Port: p}}, pkt, start)
		}
	}
	return pc
}

// ProbeCollector tracks outstanding probes; after the network has run,
// the ones left name the directed ports whose probes vanished.
type ProbeCollector struct {
	expected map[[2]int]bool
}

// ReactiveAnycast is the controller-centric alternative to the in-band
// anycast service: the ingress switch punts the first packet of a flow,
// the controller computes a shortest path to the nearest reachable group
// member over its (assumed fresh) topology view, installs one flow-mod per
// path hop, and packet-outs the packet. Returns the chosen member and the
// path length, or ok=false when no member is reachable.
//
// Cost per new flow: 1 packet-in + |path| flow-mods + 1 packet-out — all
// of which SmartSouth's anycast avoids.
func (c *Controller) ReactiveAnycast(g *topo.Graph, src int, members []int, flowID uint32, at network.Time) (member int, hops int, ok bool) {
	// The punt that starts a reactive flow: modelled directly as one
	// packet-in worth of accounting.
	c.Stats.PacketIns++

	best, bestLen := -1, -1
	var bestPath []int // node sequence src..member
	for _, m := range members {
		path := bfsPath(g, src, m)
		if path == nil {
			continue
		}
		if bestLen == -1 || len(path) < bestLen {
			best, bestLen, bestPath = m, len(path), path
		}
	}
	if best == -1 {
		return 0, 0, false
	}

	pkt := openflow.NewPacket(EthData, 4)
	pkt.Store(fDataFlow, uint64(flowID))
	match := openflow.MatchEth(EthData).WithField(fDataFlow, uint64(flowID))
	// A shortest path visits each switch once and ends at the member, so
	// the program holds exactly one rule per switch.
	prog := baselineProgram(fmt.Sprintf("reactive-flow-%d", flowID))
	for i := 0; i < len(bestPath)-1; i++ {
		u, v := bestPath[i], bestPath[i+1]
		c.addRule(prog, u, &openflow.FlowEntry{
			Priority: 50, Match: match, Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: g.PortTo(u, v)}},
			Cookie:  fmt.Sprintf("reactive-flow-%d", flowID),
		})
	}
	c.addRule(prog, best, &openflow.FlowEntry{
		Priority: 50, Match: match, Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
		Cookie:  fmt.Sprintf("reactive-flow-%d-sink", flowID),
	})
	c.InstallProgram(prog)
	c.PacketOut(src, openflow.PortController, pkt, at)
	return best, len(bestPath) - 1, true
}

// bfsPath returns the node sequence of a shortest path src..dst, or nil.
func bfsPath(g *topo.Graph, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	prev := map[int]int{src: -1}
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 1; p <= g.Degree(u); p++ {
			v, _, _ := g.Neighbor(u, p)
			if _, seen := prev[v]; seen {
				continue
			}
			prev[v] = u
			if v == dst {
				var path []int
				for x := dst; x != -1; x = prev[x] {
					path = append(path, x)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, v)
		}
	}
	return nil
}
