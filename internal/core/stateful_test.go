package core

import (
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// Cross-backend parity: without link failures the stateful lowering's
// static port scan picks exactly the ports the OF13 fast-failover groups
// would, so every service must produce the same observable result — and
// the same in-band message count — from one definition on both backends.

func bothBackends(t *testing.T, f func(t *testing.T, be Backend)) {
	t.Helper()
	for _, be := range Backends() {
		t.Run(be.Name(), func(t *testing.T) { f(t, be) })
	}
}

func TestStatefulTraversalCompletes(t *testing.T) {
	for _, g := range []*topo.Graph{topo.Line(5), topo.Ring(8), topo.Grid(3, 4), topo.RandomConnected(16, 12, 3)} {
		net := network.New(g, network.Options{})
		c := controller.New(net)
		tr, err := InstallTraversal(c, g, 0, WithBackend(Stateful))
		if err != nil {
			t.Fatal(err)
		}
		tr.Trigger(0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if !tr.Completed() {
			t.Fatalf("stateful traversal did not complete on %d nodes", g.NumNodes())
		}
		// The Table-2 in-band bound holds exactly: 4E - 2n + 2 crossings.
		want := 4*g.NumEdges() - 2*g.NumNodes() + 2
		if got := net.InBandCount(EthTraversal); got != want {
			t.Errorf("in-band msgs = %d, want %d", got, want)
		}
	}
}

// TestStatefulTraversalReTrigger: the DFS state persists in the switches
// after a run; Trigger must reset it so a second sweep works — from any
// root, not just the first one.
func TestStatefulTraversalReTrigger(t *testing.T) {
	g := topo.Grid(3, 3)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	tr, err := InstallTraversal(c, g, 0, WithBackend(Stateful))
	if err != nil {
		t.Fatal(err)
	}
	for run, root := range []int{0, 4, 8} {
		tr.Trigger(root, net.Sim.Now()+1)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if got := len(c.Inbox()); got != run+1 {
			t.Fatalf("run %d from root %d: %d completion reports, want %d", run, root, got, run+1)
		}
	}
}

func TestStatefulSnapshotParity(t *testing.T) {
	shapes := map[string]*topo.Graph{
		"line":   topo.Line(6),
		"ring":   topo.Ring(7),
		"star":   topo.Star(6),
		"grid":   topo.Grid(3, 4),
		"random": topo.RandomConnected(18, 14, 11),
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			var inBand [2]int
			for i, be := range Backends() {
				net := network.New(g, network.Options{})
				c := controller.New(net)
				s, err := InstallSnapshot(c, g, 0, WithBackend(be))
				if err != nil {
					t.Fatal(err)
				}
				s.Trigger(0, 0)
				if _, err := net.Run(); err != nil {
					t.Fatal(err)
				}
				res, err := s.Collect()
				if err != nil {
					t.Fatalf("%s: decode: %v", be.Name(), err)
				}
				checkSnapshotExact(t, g, res)
				inBand[i] = net.InBandCount(EthSnapshot)
			}
			if inBand[0] != inBand[1] {
				t.Errorf("in-band msgs differ: of13 %d, stateful %d", inBand[0], inBand[1])
			}
		})
	}
}

func TestStatefulAnycastParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Grid(4, 4)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		a, err := InstallAnycast(c, g, 0, map[uint32][]int{7: {10, 15}}, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		got := captureSelf(net)
		a.Send(0, 7, []byte("hello"), 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 1 {
			t.Fatalf("deliveries = %d, want 1", len(*got))
		}
		if d := (*got)[0]; d.sw != 10 && d.sw != 15 {
			t.Errorf("delivered at %d, want a member of {10,15}", d.sw)
		}
		if c.Stats.RuntimeMsgs() != 0 {
			t.Errorf("out-band msgs = %d, want 0", c.Stats.RuntimeMsgs())
		}
		// Successive sends keep working (the stateful backend resets its
		// sweep state per send).
		a.Send(3, 7, []byte("again"), net.Sim.Now()+1)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 2 {
			t.Fatalf("second send: deliveries = %d, want 2", len(*got))
		}
	})
}

func TestStatefulPriocastParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.RandomConnected(12, 8, 5)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		members := map[uint32][]PrioMember{3: {{Node: 2, Prio: 4}, {Node: 9, Prio: 9}, {Node: 5, Prio: 1}}}
		p, err := InstallPriocast(c, g, 0, members, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		got := captureSelf(net)
		p.Send(0, 3, []byte("prio"), 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 1 {
			t.Fatalf("deliveries = %d, want exactly 1", len(*got))
		}
		if d := (*got)[0]; d.sw != 9 {
			t.Errorf("delivered at %d, want the highest-priority member 9", d.sw)
		}
		if p.FailureReported() {
			t.Error("unexpected failure report")
		}
		if c.Stats.RuntimeMsgs() != 0 {
			t.Errorf("out-band msgs = %d, want 0", c.Stats.RuntimeMsgs())
		}
	})
}

func TestStatefulPriocastRootWins(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Ring(6)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		members := map[uint32][]PrioMember{1: {{Node: 2, Prio: 9}, {Node: 4, Prio: 3}}}
		p, err := InstallPriocast(c, g, 0, members, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		got := captureSelf(net)
		p.Send(2, 1, nil, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 1 || (*got)[0].sw != 2 {
			t.Fatalf("deliveries = %v, want exactly one at the root member 2", *got)
		}
	})
}

func TestStatefulCriticalParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		// On a line every inner node is critical, the ends are not.
		g := topo.Line(5)
		for node := 0; node < g.NumNodes(); node++ {
			net := network.New(g, network.Options{})
			c := controller.New(net)
			cr, err := InstallCritical(c, g, 0, WithBackend(be))
			if err != nil {
				t.Fatal(err)
			}
			cr.Check(node, 0)
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			critical, ok := cr.Verdict()
			if !ok {
				t.Fatalf("node %d: no verdict", node)
			}
			want := node != 0 && node != g.NumNodes()-1
			if critical != want {
				t.Errorf("node %d: critical = %v, want %v", node, critical, want)
			}
		}
	})
}

func TestStatefulChaincastParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Grid(3, 4)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		cc, err := InstallChaincast(c, g, 0, [][]int{{4}, {11}, {0}}, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		got := captureSelf(net)
		cc.Send(6, []byte("chain"), 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(*got) != 3 {
			t.Fatalf("deliveries = %d, want one per stage", len(*got))
		}
		for i, want := range []int{4, 11, 0} {
			if (*got)[i].sw != want {
				t.Errorf("stage %d delivered at %d, want %d", i, (*got)[i].sw, want)
			}
		}
	})
}

func TestStatefulSnapshotSplitParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.RandomConnected(14, 10, 7)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		s, err := InstallSnapshotSplit(c, g, 0, 8, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		s.Trigger(0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		res, fragments, err := s.Collect()
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshotExact(t, g, res)
		if fragments < 2 {
			t.Errorf("fragments = %d, want a real split", fragments)
		}
	})
}

func TestStatefulBlackholeTTLParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Grid(3, 4)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		b, err := InstallBlackholeTTL(c, g, 0, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		// Healthy network: no report.
		rep, err := b.Locate(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			t.Fatalf("healthy network reported %v", rep)
		}
		// Silent drop on 5->6: locate it.
		if err := net.SetBlackhole(5, 6, true); err != nil {
			t.Fatal(err)
		}
		rep, err = b.Locate(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			t.Fatal("blackhole not found")
		}
		if !(rep.Switch == 5 && rep.Peer == 6) && !(rep.Switch == 6 && rep.Peer == 5) {
			t.Errorf("located %v, want link 5-6", rep)
		}
	})
}

func TestStatefulBlackholeCounterParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Ring(8)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		b, err := InstallBlackholeCounter(c, g, 0, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetBlackhole(3, 4, true); err != nil {
			t.Fatal(err)
		}
		b.Detect(0, 0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		rep, found, done := b.Outcome()
		if !done || !found {
			t.Fatalf("done=%v found=%v", done, found)
		}
		if !(rep.Switch == 3 && rep.Peer == 4) && !(rep.Switch == 4 && rep.Peer == 3) {
			t.Errorf("located %v, want link 3-4", rep)
		}
	})
}

func TestStatefulPktLossParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Ring(6)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		pl, err := InstallPktLoss(c, g, 0, nil, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		pl.Monitor(0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		losses, done := pl.Reports()
		if !done {
			t.Fatal("no completion report")
		}
		if len(losses) != 0 {
			t.Errorf("healthy network reported losses %v", losses)
		}
	})
}

func TestStatefulLoadMapParity(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Line(4)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		lm, err := InstallLoadMap(c, g, 0, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			lm.SendData(0, 3, network.Time(i)*10)
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		lm.Monitor(0, net.Sim.Now()+1)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		loads, done := lm.Loads()
		if !done {
			t.Fatal("no load report")
		}
		// Each inner hop of 0->1->2->3 received 3 data packets.
		if got := loads[PortLoad{Node: 3, Port: 1}]; got != 3 {
			t.Errorf("load at node 3 port 1 = %d, want 3", got)
		}
	})
}

// TestStatefulTagBitsCollapse pins the Table-2 headline: the stateful
// backend needs O(1) packet tag bits where OF13 needs O(n log n), and it
// installs strictly fewer entries (transitions replace both the rules and
// the advance-group buckets) while sending zero group-mods.
func TestStatefulTagBitsCollapse(t *testing.T) {
	g := topo.Ring(20)
	if of13, st := NewLayout(g).nextBit, NewStatefulLayout(g).nextBit; st >= of13 {
		t.Errorf("stateful layout uses %d tag bits, of13 %d — want a collapse", st, of13)
	}

	for _, install := range []struct {
		name string
		f    func(c ControlPlane, be Backend) (*Program, error)
	}{
		{"traversal", func(c ControlPlane, be Backend) (*Program, error) {
			s, err := InstallTraversal(c, g, 0, WithBackend(be))
			if err != nil {
				return nil, err
			}
			return s.Prog, nil
		}},
		{"snapshot", func(c ControlPlane, be Backend) (*Program, error) {
			s, err := InstallSnapshot(c, g, 0, WithBackend(be))
			if err != nil {
				return nil, err
			}
			return s.Prog, nil
		}},
		{"anycast", func(c ControlPlane, be Backend) (*Program, error) {
			s, err := InstallAnycast(c, g, 0, map[uint32][]int{1: {2}}, WithBackend(be))
			if err != nil {
				return nil, err
			}
			return s.Prog, nil
		}},
	} {
		t.Run(install.name, func(t *testing.T) {
			var entries [2]int
			var groups [2]int
			for i, be := range Backends() {
				net := network.New(g, network.Options{})
				c := controller.New(net)
				p, err := install.f(c, be)
				if err != nil {
					t.Fatal(err)
				}
				entries[i] = p.FlowCount() + p.GroupCount() + p.StateCount()
				groups[i] = p.GroupCount()
			}
			if entries[1] >= entries[0] {
				t.Errorf("stateful installs %d entries, of13 %d — want strictly fewer", entries[1], entries[0])
			}
			if groups[1] != 0 {
				t.Errorf("stateful installs %d advance groups, want 0", groups[1])
			}
		})
	}
}

// TestStatefulProgramRejectedRemotely: state tables cannot cross an
// OpenFlow 1.3 wire, and the pre-install check must keep dual-use of a
// table id (flow entries shadowed by a state table) out of the plane.
func TestStatefulLowerRequiresStatefulLayout(t *testing.T) {
	g := topo.Ring(4)
	l := NewLayout(g)
	tm := &Template{G: g, L: l, Eth: EthTraversal, T0: 1, TFin: 2}
	if err := tm.CompileStateful(openflow.NewProgram("x", 0)); err == nil {
		t.Error("CompileStateful accepted an OF13 layout")
	}
}

// TestStateCommitTelemetry: Run's telemetry fold counts committed
// state-table writes on the network; a traversal on the stateful backend must record
// some, and the tag-carried of13 backend must record none.
func TestStateCommitTelemetry(t *testing.T) {
	bothBackends(t, func(t *testing.T, be Backend) {
		g := topo.Ring(8)
		net := network.New(g, network.Options{})
		c := controller.New(net)
		tr, err := InstallTraversal(c, g, 0, WithBackend(be))
		if err != nil {
			t.Fatal(err)
		}
		tr.Trigger(0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		d := net.Telemetry().StateCommits
		if be.Stateful() && d == 0 {
			t.Error("stateful traversal recorded no state commits")
		}
		if !be.Stateful() && d != 0 {
			t.Errorf("of13 traversal recorded %d state commits, want 0", d)
		}
	})
}
