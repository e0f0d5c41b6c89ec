package controller

import (
	"testing"

	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

func TestInstallAndPacketOutAccounting(t *testing.T) {
	g := topo.Line(2)
	net := network.New(g, network.Options{})
	c := New(net)

	p := openflow.NewProgram("test", 0)
	p.Ensure(0, 1)
	p.AddFlow(0, 0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}, Cookie: "punt"})
	p.Ensure(1, 1)
	p.AddGroup(1, &openflow.GroupEntry{ID: 1, Type: openflow.GroupIndirect})
	c.InstallProgram(p)
	if c.Stats.FlowMods != 1 || c.Stats.GroupMods != 1 {
		t.Errorf("offline stats: %+v", c.Stats)
	}

	c.PacketOut(0, 1, openflow.NewPacket(0x1234, 0), 0)
	net.Run()
	if c.Stats.PacketOuts != 1 || c.Stats.PacketIns != 1 {
		t.Errorf("runtime stats: %+v", c.Stats)
	}
	if len(c.Inbox()) != 1 || c.Inbox()[0].Switch != 0 {
		t.Errorf("inbox: %+v", c.Inbox())
	}
	if c.Stats.RuntimeMsgs() != 2 || c.Stats.OutBandBytes == 0 {
		t.Errorf("runtime msgs: %+v", c.Stats)
	}
	c.ResetRuntimeStats()
	if c.Stats.RuntimeMsgs() != 0 || c.Stats.FlowMods != 1 || len(c.Inbox()) != 0 {
		t.Errorf("after reset: %+v", c.Stats)
	}
}

func edgeKey(e topo.Edge) [2]int {
	if e.U < e.V {
		return [2]int{e.U, e.V}
	}
	return [2]int{e.V, e.U}
}

func TestDiscoverTopologyFindsEveryLink(t *testing.T) {
	g := topo.RandomConnected(12, 6, 5)
	net := network.New(g, network.Options{})
	c := New(net)
	c.InstallPuntRules(EthLLDP, 100)

	tc := c.DiscoverTopology(0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}

	got := make(map[[2]int]bool)
	for _, e := range tc.Edges() {
		got[edgeKey(e)] = true
	}
	if len(got) != g.NumEdges() {
		t.Fatalf("discovered %d links, want %d", len(got), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !got[edgeKey(e)] {
			t.Errorf("missed edge %+v", e)
		}
	}
	// Cost model: 2E probes out, 2E packet-ins back.
	if c.Stats.PacketOuts != 2*g.NumEdges() {
		t.Errorf("packet-outs = %d, want %d", c.Stats.PacketOuts, 2*g.NumEdges())
	}
	if c.Stats.PacketIns != 2*g.NumEdges() {
		t.Errorf("packet-ins = %d, want %d", c.Stats.PacketIns, 2*g.NumEdges())
	}
}

func TestDiscoverTopologyMissesFailedLink(t *testing.T) {
	g := topo.Ring(5)
	net := network.New(g, network.Options{})
	c := New(net)
	c.InstallPuntRules(EthLLDP, 100)
	net.SetLinkDown(1, 2, true)

	tc := c.DiscoverTopology(0)
	net.Run()
	for _, e := range tc.Edges() {
		k := edgeKey(e)
		if k == [2]int{1, 2} {
			t.Error("down link must not be discovered")
		}
	}
	if len(tc.Edges()) != 4 {
		t.Errorf("discovered %d links, want 4", len(tc.Edges()))
	}
}

func TestProbeLinksLocatesBlackhole(t *testing.T) {
	g := topo.Grid(3, 3)
	net := network.New(g, network.Options{})
	c := New(net)
	c.InstallPuntRules(EthProbe, 100)
	// Unidirectional blackhole 4 -> 5.
	if err := net.SetBlackhole(4, 5, false); err != nil {
		t.Fatal(err)
	}

	pc := c.ProbeLinks(0)
	net.Run()
	missing := pc.Missing()
	if len(missing) != 1 {
		t.Fatalf("missing = %v, want exactly one", missing)
	}
	wantPort := g.PortTo(4, 5)
	if missing[0] != [2]int{4, wantPort} {
		t.Errorf("located %v, want [4 %d]", missing[0], wantPort)
	}
}

func TestReactiveAnycastInstallsPathAndDelivers(t *testing.T) {
	g := topo.Line(6)
	net := network.New(g, network.Options{})
	c := New(net)

	delivered := []int{}
	net.OnSelf = func(sw int, pkt *openflow.Packet) { delivered = append(delivered, sw) }

	member, hops, ok := c.ReactiveAnycast(g, 1, []int{4, 5}, 77, 0)
	if !ok || member != 4 || hops != 3 {
		t.Fatalf("member=%d hops=%d ok=%v, want 4/3/true", member, hops, ok)
	}
	net.Run()
	if len(delivered) != 1 || delivered[0] != 4 {
		t.Fatalf("delivered to %v, want [4]", delivered)
	}
	// 1 punt (modelled) + 1 packet-out; flow-mods = hops rules + sink.
	if c.Stats.PacketIns != 1 || c.Stats.PacketOuts != 1 {
		t.Errorf("runtime: %+v", c.Stats)
	}
	if c.Stats.FlowMods != hops+1 {
		t.Errorf("flow-mods = %d, want %d", c.Stats.FlowMods, hops+1)
	}
}

func TestReactiveAnycastNoMemberReachable(t *testing.T) {
	g := topo.Line(3)
	net := network.New(g, network.Options{})
	c := New(net)
	_, _, ok := c.ReactiveAnycast(g, 0, nil, 1, 0)
	if ok {
		t.Error("no members: want ok=false")
	}
}

func TestBFSPathProperties(t *testing.T) {
	g := topo.Grid(4, 4)
	path := bfsPath(g, 0, 15)
	if len(path) != 7 { // manhattan distance 6 => 7 nodes
		t.Fatalf("path len %d, want 7", len(path))
	}
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			t.Fatalf("path step %d not an edge", i)
		}
	}
	if bfsPath(g, 3, 3)[0] != 3 {
		t.Error("self path")
	}
}
