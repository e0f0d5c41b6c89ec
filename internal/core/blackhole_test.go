package core

import (
	"math"
	"testing"
	"testing/quick"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// plantHole marks the directed crossing u->v (and optionally v->u) as a
// silent blackhole and returns the matching golden-model predicate.
func plantHole(t *testing.T, net *network.Network, g *topo.Graph, u, v int, bidir bool) topo.PortPredicate {
	t.Helper()
	if err := net.SetBlackhole(u, v, bidir); err != nil {
		t.Fatal(err)
	}
	return func(a, p int) bool {
		b, _, _ := g.Neighbor(a, p)
		if a == u && b == v {
			return true
		}
		return bidir && a == v && b == u
	}
}

func TestBlackholeTTLLocates(t *testing.T) {
	cases := []struct {
		name string
		g    *topo.Graph
		u, v int
	}{
		{"line-mid", topo.Line(6), 2, 3},
		{"ring", topo.Ring(8), 5, 6},
		{"grid", topo.Grid(3, 4), 5, 6},
		{"random", topo.RandomConnected(14, 10, 6), 3, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.g.HasEdge(tc.u, tc.v) {
				// Pick any edge incident to u instead.
				vv, _, _ := tc.g.Neighbor(tc.u, 1)
				tc.v = vv
			}
			net := network.New(tc.g, network.Options{})
			c := controller.New(net)
			b, err := InstallBlackholeTTL(c, tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			hole := plantHole(t, net, tc.g, tc.u, tc.v, false)
			golden := topo.GoldenDFS(tc.g, 0, topo.Never, hole)
			if golden.LostAt == nil {
				t.Fatal("bad test: golden traversal survived")
			}
			rep, err := b.Locate(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil {
				t.Fatal("no blackhole located")
			}
			if rep.Switch != golden.LostAt.From || rep.Port != golden.LostAt.FromPort {
				t.Errorf("located (%d,%d), want (%d,%d)",
					rep.Switch, rep.Port, golden.LostAt.From, golden.LostAt.FromPort)
			}
		})
	}
}

func TestBlackholeTTLHealthyReportsNone(t *testing.T) {
	g := topo.Grid(3, 3)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	b, err := InstallBlackholeTTL(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Locate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Fatalf("false positive: %v", rep)
	}
}

func TestBlackholeTTLMessageComplexity(t *testing.T) {
	g := topo.RandomConnected(12, 8, 3)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	b, err := InstallBlackholeTTL(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	plantHole(t, net, g, 3, int(mustNeighbor(g, 3)), false)
	if _, err := b.Locate(0, 0); err != nil {
		t.Fatal(err)
	}
	// Binary search over [1, 4E+2]: ~log2(4E) probes, each at most one
	// packet-out plus one packet-in.
	bound := 2*(int(math.Ceil(math.Log2(float64(4*g.NumEdges()+2))))+2) + 2
	if c.Stats.RuntimeMsgs() > bound {
		t.Errorf("out-band msgs = %d, want <= 2 log E + c = %d", c.Stats.RuntimeMsgs(), bound)
	}
}

func mustNeighbor(g *topo.Graph, u int) int {
	v, _, ok := g.Neighbor(u, 1)
	if !ok {
		panic("no neighbor")
	}
	return v
}

// Property: the TTL detector localises a randomly planted unidirectional
// blackhole at exactly the golden model's loss point.
func TestQuickBlackholeTTL(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw, edgeRaw uint8, rev bool) bool {
		n := 4 + int(nRaw%8)
		g := topo.RandomConnected(n, int(extraRaw%6), seed)
		e := g.Edges()[int(edgeRaw)%g.NumEdges()]
		u, v := e.U, e.V
		if rev {
			u, v = v, u
		}
		net := network.New(g, network.Options{})
		c := controller.New(net)
		b, err := InstallBlackholeTTL(c, g, 0)
		if err != nil {
			return false
		}
		if err := net.SetBlackhole(u, v, false); err != nil {
			return false
		}
		hole := func(a, p int) bool {
			bb, _, _ := g.Neighbor(a, p)
			return a == u && bb == v
		}
		golden := topo.GoldenDFS(g, 0, topo.Never, hole)
		rep, err := b.Locate(0, 0)
		if err != nil {
			return false
		}
		if golden.LostAt == nil {
			return rep == nil
		}
		return rep != nil && rep.Switch == golden.LostAt.From && rep.Port == golden.LostAt.FromPort
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func counterRig(t *testing.T, g *topo.Graph) (*BlackholeCounter, *network.Network, *controller.Controller) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	b, err := InstallBlackholeCounter(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b, net, c
}

func TestBlackholeCounterHealthy(t *testing.T) {
	g := topo.Grid(3, 3)
	b, net, c := counterRig(t, g)
	b.Detect(0, 0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	rep, found, done := b.Outcome()
	if !done || found || rep != nil {
		t.Fatalf("outcome: rep=%v found=%v done=%v, want healthy completion", rep, found, done)
	}
	// Table 2: exactly 3 out-of-band messages (2 triggers + 1 report).
	if c.Stats.RuntimeMsgs() != 3 {
		t.Errorf("out-band msgs = %d, want 3", c.Stats.RuntimeMsgs())
	}
	// After the dance every used port counter is at least 2 — that is the
	// invariant the detector relies on (checker +1 may apply on top, and
	// the dance leaves healthy ports at 2..4).
	for i := 0; i < g.NumNodes(); i++ {
		for p := 1; p <= g.Degree(i); p++ {
			if v := c.GroupCounter(i, b.Counters[i][p-1].GroupID); v < 2 {
				t.Errorf("counter (%d,%d) = %d, want >= 2 after a healthy round", i, p, v)
			}
		}
	}
}

func TestBlackholeCounterLocates(t *testing.T) {
	for _, bidir := range []bool{false, true} {
		g := topo.Grid(3, 4)
		b, net, c := counterRig(t, g)
		plantHole(t, net, g, 5, 6, bidir)
		b.Detect(0, 0, 0)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		rep, found, done := b.Outcome()
		if !done || !found || rep == nil {
			t.Fatalf("bidir=%v: no detection (rep=%v found=%v done=%v)", bidir, rep, found, done)
		}
		// The checker reports whichever stranded counter it meets first in
		// DFS order — i.e. one endpoint of the planted link.
		okFwd := rep.Switch == 5 && rep.Peer == 6
		okRev := rep.Switch == 6 && rep.Peer == 5
		if !okFwd && !okRev {
			t.Errorf("bidir=%v: located %v, want an endpoint of link 5-6", bidir, rep)
		}
		if c.Stats.RuntimeMsgs() != 3 {
			t.Errorf("bidir=%v: out-band msgs = %d, want 3", bidir, c.Stats.RuntimeMsgs())
		}
	}
}

func TestBlackholeCounterReverseDirectionHole(t *testing.T) {
	// Plant the hole on the *echo* direction: the dance's bounce-back is
	// swallowed, which a plain one-way probe would never notice.
	g := topo.Line(5)
	b, net, _ := counterRig(t, g)
	// Traversal from 0 crosses 2->3 forward; kill 3->2 instead.
	if err := net.SetBlackhole(3, 2, false); err != nil {
		t.Fatal(err)
	}
	b.Detect(0, 0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	rep, found, done := b.Outcome()
	if !done || !found {
		t.Fatal("reverse-direction blackhole not detected")
	}
	// The stranded counter sits at switch 2 (its echo never returned).
	if rep.Switch != 2 {
		t.Errorf("reported switch %d, want 2", rep.Switch)
	}
	if rep.Peer != 3 {
		t.Errorf("reported peer %d, want 3", rep.Peer)
	}
}

func TestBlackholeCounterInBandLinear(t *testing.T) {
	// In-band cost must stay O(E): dance <= 6E-2n+2, checker <= 4E-2n+2.
	g := topo.RandomConnected(16, 12, 7)
	b, net, _ := counterRig(t, g)
	b.Detect(0, 0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, done := b.Outcome(); !done {
		t.Fatal("no outcome")
	}
	e, n := g.NumEdges(), g.NumNodes()
	dance := net.InBandCount(EthBlackhole)
	check := net.InBandCount(EthBlackholeChk)
	if dance > 6*e-2*n+2 {
		t.Errorf("dance in-band = %d > 6E-2n+2 = %d", dance, 6*e-2*n+2)
	}
	if check != 4*e-2*n+2 {
		t.Errorf("checker in-band = %d, want 4E-2n+2 = %d", check, 4*e-2*n+2)
	}
}

func TestBlackholeCounterResetAndRerun(t *testing.T) {
	g := topo.Ring(6)
	b, net, c := counterRig(t, g)
	plantHole(t, net, g, 2, 3, false)
	b.Detect(0, 0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := b.Outcome(); !found {
		t.Fatal("first round missed the hole")
	}
	// Repair the link, reset, and rerun: healthy verdict.
	if err := net.SetLinkDown(2, 3, false); err != nil { // resets both directions to up
		t.Fatal(err)
	}
	b.ResetCounters()
	c.ClearInbox()
	b.Detect(0, net.Sim.Now()+1, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	rep, found, done := b.Outcome()
	if !done || found {
		t.Fatalf("after repair: rep=%v found=%v done=%v, want healthy", rep, found, done)
	}
}

// Property: the smart-counter detector reports the golden loss point for
// random holes in random graphs.
func TestQuickBlackholeCounter(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw, edgeRaw uint8, rev bool) bool {
		n := 4 + int(nRaw%8)
		g := topo.RandomConnected(n, int(extraRaw%6), seed)
		e := g.Edges()[int(edgeRaw)%g.NumEdges()]
		u, v := e.U, e.V
		if rev {
			u, v = v, u
		}
		net := network.New(g, network.Options{})
		c := controller.New(net)
		b, err := InstallBlackholeCounter(c, g, 0)
		if err != nil {
			return false
		}
		if err := net.SetBlackhole(u, v, false); err != nil {
			return false
		}
		b.Detect(0, 0, 0)
		if _, err := net.Run(); err != nil {
			return false
		}
		rep, found, done := b.Outcome()
		if !done || !found || rep == nil {
			return false
		}
		// The reported port must be one endpoint of the planted link.
		okFwd := rep.Switch == u && rep.Peer == v
		okRev := rep.Switch == v && rep.Peer == u
		return okFwd || okRev
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSmartCounterPrimitive(t *testing.T) {
	g := topo.Line(2)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	l := NewLayout(g)
	f := l.Alloc("ctr", 3)
	// install compiles one counter into a transient program and installs
	// it; installing it again is the out-of-band reset (a group-mod resets
	// bucket state).
	install := func(gid uint32, modulus int) (*SmartCounter, error) {
		p := openflow.NewProgram("smart-counter", 0)
		p.Transient = true
		sc, err := CompileSmartCounter(p, 0, 0, gid, f, modulus)
		if err == nil {
			c.InstallProgram(p)
		}
		return sc, err
	}
	sc, err := install(99, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := install(98, 2000); err == nil {
		t.Error("oversized modulus accepted")
	}
	if _, err := install(97, 1); err == nil {
		t.Error("modulus 1 accepted")
	}
	// Drive the counter through the pipeline: each fetch writes the
	// pre-increment value into the field.
	sw := net.Switch(0)
	for want := 0; want < 12; want++ {
		pkt := l.NewPacket(0x9999)
		res := sw.Execute(pkt, []openflow.Action{openflow.Group{ID: sc.GroupID}, openflow.Output{Port: openflow.PortSelf}})
		if len(res.Emissions) != 1 {
			t.Fatal("no emission")
		}
		if got := res.Emissions[0].Pkt.Load(f); got != uint64(want%5) {
			t.Fatalf("fetch %d read %d, want %d", want, got, want%5)
		}
	}
	if v := c.GroupCounter(0, 99); v != 12%5 {
		t.Errorf("stored counter = %d, want %d", v, 12%5)
	}
	if _, err := install(99, 5); err != nil {
		t.Fatal(err)
	}
	if c.GroupCounter(0, 99) != 0 {
		t.Error("reset failed")
	}
}
