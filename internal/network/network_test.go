package network

import (
	"errors"
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

const testEth = 0x88B5

// installForwardAll makes every switch flood any packet out of port 1
// unless it arrived there, in which case it is dropped (enough plumbing to
// push a packet down a line).
func lineForwarding(n *Network) {
	for i := 0; i < n.NumSwitches(); i++ {
		sw := n.Switch(i)
		// Forward "rightwards": anything arriving on port 1 goes out the
		// highest port; port counting on a line: node 0 has port 1 to
		// node 1; interior nodes: port 1 left, port 2 right.
		if sw.NumPorts >= 2 {
			sw.AddFlow(0, &openflow.FlowEntry{Priority: 1,
				Match: openflow.MatchAll().WithInPort(1), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: 2}}, Cookie: "right"})
		} else if i != 0 {
			// Last node: deliver to self.
			sw.AddFlow(0, &openflow.FlowEntry{Priority: 1,
				Match: openflow.MatchAll().WithInPort(1), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}}, Cookie: "sink"})
		}
	}
}

func TestDeliveryAcrossALine(t *testing.T) {
	g := topo.Line(5)
	n := New(g, Options{})
	lineForwarding(n)

	var got []int
	n.OnSelf = func(sw int, pkt *openflow.Packet) { got = append(got, sw) }

	pkt := openflow.NewPacket(testEth, 2)
	// Inject at switch 0 as if arriving from a host on... node 0 has only
	// port 1; give it a direct send rule instead: process with InPort
	// that misses and use explicit injection at node 1.
	n.Inject(1, 1, pkt, 0, HostInject)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("delivered to %v, want [4]", got)
	}
	// 3 link crossings: 1->2, 2->3, 3->4.
	if n.InBandCount(testEth) != 3 {
		t.Errorf("in-band msgs = %d, want 3", n.InBandCount(testEth))
	}
	if n.Sim.Now() != 3*1000 {
		t.Errorf("clock = %d, want 3000 (3 hops at 1µs)", n.Sim.Now())
	}
}

func TestLinkDownUpdatesLivenessAndDrops(t *testing.T) {
	g := topo.Line(3)
	n := New(g, Options{})
	lineForwarding(n)
	if err := n.SetLinkDown(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if n.Switch(1).PortLive(2) || n.Switch(2).PortLive(1) {
		t.Error("liveness should be down on both endpoints")
	}
	delivered := 0
	n.OnSelf = func(int, *openflow.Packet) { delivered++ }
	n.Inject(1, 1, openflow.NewPacket(testEth, 2), 0, HostInject)
	n.Run()
	if delivered != 0 {
		t.Error("packet crossed a down link")
	}
	l := n.LinkBetween(1, 2)
	if l.StatsAB.Sent != 1 || l.StatsAB.Dropped != 1 || l.StatsAB.Delivered != 0 {
		t.Errorf("stats = %+v", l.StatsAB)
	}

	if err := n.SetLinkDown(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if !n.Switch(1).PortLive(2) {
		t.Error("liveness should be restored")
	}
}

func TestBlackholeInvisibleToLiveness(t *testing.T) {
	g := topo.Line(3)
	n := New(g, Options{})
	lineForwarding(n)
	if err := n.SetBlackhole(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if !n.Switch(1).PortLive(2) {
		t.Error("blackhole must not affect liveness")
	}
	hops := 0
	var lost bool
	n.ObserveHops(func(h Hop, _ *openflow.Packet, delivered bool) {
		hops++
		if !delivered {
			lost = h.From == 1 && h.To == 2
		}
	})
	n.Inject(1, 1, openflow.NewPacket(testEth, 2), 0, HostInject)
	n.Run()
	if hops != 1 || !lost {
		t.Errorf("hops=%d lost=%v; want the single hop swallowed at 1->2", hops, lost)
	}
	// The reverse direction still works.
	l := n.LinkBetween(1, 2)
	if l.modeBA != LinkUp {
		t.Error("unidirectional blackhole changed the reverse direction")
	}
}

func TestLossyLinkDropsStatistically(t *testing.T) {
	g := topo.Line(2)
	n := New(g, Options{Seed: 7})
	// node 0 port 1 <-> node 1 port 1; bounce rule at node 1 sends back.
	n.Switch(1).AddFlow(0, &openflow.FlowEntry{Priority: 1,
		Match: openflow.MatchAll(), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}}, Cookie: "sink"})
	if err := n.SetLoss(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.OnSelf = func(int, *openflow.Packet) { delivered++ }
	const trials = 2000
	for i := 0; i < trials; i++ {
		n.Inject(0, openflow.PortController, openflow.NewPacket(testEth, 1), Time(i), PacketOut)
	}
	// Give node 0 a rule that forwards controller-injected packets.
	n.Switch(0).AddFlow(0, &openflow.FlowEntry{Priority: 1,
		Match: openflow.MatchAll(), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: 1}}, Cookie: "tx"})
	n.Run()
	if delivered < trials*35/100 || delivered > trials*65/100 {
		t.Errorf("delivered %d of %d with 50%% loss", delivered, trials)
	}
	l := n.LinkBetween(0, 1)
	if l.StatsAB.Sent != trials || l.StatsAB.Delivered != delivered {
		t.Errorf("stats %+v vs delivered=%d", l.StatsAB, delivered)
	}
}

// TestLossySeedPinsDropSequence pins the per-direction drop sequences a
// fixed network seed produces. The two seeds of every link are drawn from
// the network generator when the network is built, in link order, but a
// direction's generator is only constructed on its first lossy draw; the
// sequences below were recorded with eagerly seeded generators, so they
// hold only while construction order and draw order stay what they were.
func TestLossySeedPinsDropSequence(t *testing.T) {
	n := New(topo.Line(4), Options{Seed: 7})
	// The last link first, and its reverse direction before its forward
	// one: first-use order must not matter.
	if err := n.SetLoss(2, 3, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLoss(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	draw := func(u, v int) string {
		l := n.LinkBetween(u, v)
		b := make([]byte, 48)
		for i := range b {
			b[i] = '.'
			if _, _, delivered := l.transmit(u); delivered {
				b[i] = '#'
			}
		}
		return string(b)
	}
	for _, c := range []struct {
		u, v int
		want string
	}{
		{3, 2, "###.#.#..####...######.#####.#.#.#.####.#....#.."},
		{2, 3, "......##.########.##.#.##...#..#..#.##.#...####."},
		{0, 1, "#.######.###.#########.#.##....#####..#.##.#####"},
		{1, 0, "..##.####.##...###.##.###..#.##...#.###########."},
	} {
		if got := draw(c.u, c.v); got != c.want {
			t.Errorf("direction %d->%d: drop sequence\n got %s\nwant %s", c.u, c.v, got, c.want)
		}
	}
	// A link that never went lossy never built a generator.
	if l := n.LinkBetween(1, 2); l.rngAB.r != nil || l.rngBA.r != nil {
		t.Error("an always-up link constructed its loss generators")
	}
}

func TestPacketInReachesController(t *testing.T) {
	g := topo.Line(2)
	n := New(g, Options{})
	n.Switch(0).AddFlow(0, &openflow.FlowEntry{Priority: 1,
		Match: openflow.MatchAll(), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}, Cookie: "punt"})
	var from int
	count := 0
	n.OnPacketIn = func(sw int, pkt *openflow.Packet) { from = sw; count++ }
	n.Inject(0, 1, openflow.NewPacket(testEth, 1), 0, HostInject)
	n.Run()
	if count != 1 || from != 0 {
		t.Errorf("packet-in count=%d from=%d", count, from)
	}
	// Controller traffic is out-of-band: no in-band accounting.
	if n.TotalInBand() != 0 {
		t.Error("packet-in must not count as in-band")
	}
}

// TestEventLimitCatchesForwardingLoops: a rule set that bounces packets
// forever must surface as ErrEventLimit from the single loop and from the
// sharded coordinator alike. The single loop stops exactly at the budget;
// concurrent windows share what is left of it, so a sharded run may
// overshoot by at most one window's worth per extra shard.
func TestEventLimitCatchesForwardingLoops(t *testing.T) {
	const limit = 500
	for _, shards := range []int{1, 4} {
		g := topo.Ring(8)
		n := New(g, Options{MaxSteps: limit, Shards: shards})
		for i := 0; i < n.NumSwitches(); i++ {
			n.Switch(i).AddFlow(0, &openflow.FlowEntry{Priority: 1,
				Match: openflow.MatchAll(), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: openflow.PortInPort}}, Cookie: "pingpong"})
		}
		for i := 0; i < n.NumSwitches(); i++ {
			n.Inject(i, 1, openflow.NewPacket(testEth, 1), 0, HostInject)
		}
		steps, err := n.Run()
		var lim ErrEventLimit
		if !errors.As(err, &lim) {
			t.Fatalf("shards=%d: err = %v, want ErrEventLimit", shards, err)
		}
		if lim.Steps != steps || steps < limit || steps >= limit*shards+shards {
			t.Errorf("shards=%d: stopped after %d steps (error says %d), budget %d", shards, steps, lim.Steps, limit)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		g := topo.RandomConnected(10, 5, 3)
		n := New(g, Options{Seed: 9})
		for i := 0; i < n.NumSwitches(); i++ {
			sw := n.Switch(i)
			sw.AddFlow(0, &openflow.FlowEntry{Priority: 1,
				Match: openflow.MatchAll(), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: 1}}, Cookie: "p1"})
		}
		var hops []int
		n.ObserveHops(func(h Hop, _ *openflow.Packet, _ bool) { hops = append(hops, h.From*100+h.To) })
		n.Sim.MaxSteps = 200
		n.Inject(0, openflow.PortController, openflow.NewPacket(testEth, 1), 0, PacketOut)
		n.Run()
		return hops
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic run length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hop %d differs", i)
		}
	}
}

func TestResetAccounting(t *testing.T) {
	g := topo.Line(3)
	n := New(g, Options{})
	lineForwarding(n)
	n.Inject(1, 1, openflow.NewPacket(testEth, 1), 0, HostInject)
	n.Run()
	if n.TotalInBand() == 0 {
		t.Fatal("expected traffic")
	}
	n.ResetAccounting()
	if n.TotalInBand() != 0 || n.LinkBetween(1, 2).StatsAB.Sent != 0 {
		t.Error("accounting not cleared")
	}
}
