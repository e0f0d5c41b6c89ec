package core

import (
	"testing"
	"testing/quick"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// runTraversal installs the bare template on a fresh network, triggers it
// at root, and returns the recorded hops plus completion state.
func runTraversal(t *testing.T, g *topo.Graph, root int, prep func(*network.Network)) ([]network.Hop, bool) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	tr, err := InstallTraversal(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(net)
	}
	var hops []network.Hop
	net.ObserveHops(func(h network.Hop, _ *openflow.Packet, _ bool) { hops = append(hops, h) })
	tr.Trigger(root, 0)
	if _, err := net.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return hops, tr.Completed()
}

func sameHops(a []network.Hop, b []topo.Hop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompiledTraversalMatchesGoldenModel is the central fidelity check:
// the rules compiled by the template, executed by the generic OpenFlow
// pipeline, must reproduce the golden Algorithm-1 simulation hop for hop.
func TestCompiledTraversalMatchesGoldenModel(t *testing.T) {
	shapes := map[string]*topo.Graph{
		"line":    topo.Line(7),
		"ring":    topo.Ring(8),
		"star":    topo.Star(6),
		"tree":    topo.Tree(10, 2),
		"grid":    topo.Grid(3, 4),
		"random":  topo.RandomConnected(15, 10, 3),
		"random2": topo.RandomConnected(24, 30, 9),
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			for root := 0; root < g.NumNodes(); root += 3 {
				golden := topo.GoldenDFS(g, root, topo.Never, topo.Never)
				hops, done := runTraversal(t, g, root, nil)
				if !done {
					t.Fatalf("root %d: no completion report", root)
				}
				if !sameHops(hops, golden.Hops) {
					t.Fatalf("root %d: %d hops vs golden %d; first divergence: compiled %v",
						root, len(hops), len(golden.Hops), firstDiff(hops, golden.Hops))
				}
			}
		})
	}
}

func firstDiff(a []network.Hop, b []topo.Hop) any {
	for i := range a {
		if i >= len(b) {
			return a[i]
		}
		if a[i] != b[i] {
			return []any{i, a[i], b[i]}
		}
	}
	return "length"
}

// Property: compiled execution equals the golden model on random
// connected graphs with random roots.
func TestQuickCompiledEqualsGolden(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%18)
		g := topo.RandomConnected(n, int(extraRaw%12), seed)
		root := int(uint64(seed) % uint64(n))
		golden := topo.GoldenDFS(g, root, topo.Never, topo.Never)

		net := network.New(g, network.Options{})
		c := controller.New(net)
		tr, err := InstallTraversal(c, g, 0)
		if err != nil {
			return false
		}
		var hops []network.Hop
		net.ObserveHops(func(h network.Hop, _ *openflow.Packet, _ bool) { hops = append(hops, h) })
		tr.Trigger(root, 0)
		if _, err := net.Run(); err != nil {
			return false
		}
		return tr.Completed() && sameHops(hops, golden.Hops)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTraversalMessageComplexity verifies the Table-2 in-band message
// count: a full sweep costs 4E - 2n + 2 link crossings.
func TestTraversalMessageComplexity(t *testing.T) {
	for _, g := range []*topo.Graph{topo.Ring(10), topo.Grid(4, 4), topo.RandomConnected(20, 14, 1)} {
		hops, done := runTraversal(t, g, 0, nil)
		if !done {
			t.Fatal("incomplete")
		}
		want := 4*g.NumEdges() - 2*g.NumNodes() + 2
		if len(hops) != want {
			t.Errorf("hops = %d, want %d", len(hops), want)
		}
	}
}

// TestTraversalSurvivesPreExistingFailures checks the fast-failover
// robustness: links failed *before* the trigger (no recompilation, no
// controller action) are routed around, and the traversal still covers
// the root's connected component.
func TestTraversalSurvivesPreExistingFailures(t *testing.T) {
	g := topo.Grid(4, 4)
	fails := [][2]int{{0, 1}, {5, 6}, {10, 14}}
	dead := func(u, p int) bool {
		v, _, _ := g.Neighbor(u, p)
		for _, f := range fails {
			if (u == f[0] && v == f[1]) || (u == f[1] && v == f[0]) {
				return true
			}
		}
		return false
	}
	golden := topo.GoldenDFS(g, 0, dead, topo.Never)
	if !golden.Completed {
		t.Fatal("golden model says the component is unreachable — bad test setup")
	}
	hops, done := runTraversal(t, g, 0, func(net *network.Network) {
		for _, f := range fails {
			if err := net.SetLinkDown(f[0], f[1], true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if !done {
		t.Fatal("traversal did not survive link failures")
	}
	if !sameHops(hops, golden.Hops) {
		t.Fatalf("diverged from golden under failures: %v", firstDiff(hops, golden.Hops))
	}
	if len(golden.FirstVisits) != len(topo.Reachable(g, 0, dead)) {
		t.Error("golden coverage mismatch")
	}
}

// Property: with random pre-existing link failures, the compiled
// traversal still matches the golden model hop for hop (fast failover is
// part of Algorithm 1's compiled form, not an afterthought).
func TestQuickCompiledEqualsGoldenUnderFailures(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw, killRaw uint8) bool {
		n := 3 + int(nRaw%14)
		g := topo.RandomConnected(n, int(extraRaw%10), seed)
		root := int(uint64(seed) % uint64(n))

		net := network.New(g, network.Options{})
		c := controller.New(net)
		tr, err := InstallTraversal(c, g, 0)
		if err != nil {
			return false
		}
		dead := map[[2]int]bool{}
		for k := int(killRaw % 4); k > 0; k-- {
			e := g.Edges()[(int(killRaw)*7+k*3)%g.NumEdges()]
			if err := net.SetLinkDown(e.U, e.V, true); err != nil {
				return false
			}
			dead[[2]int{e.U, e.V}] = true
		}
		deadPred := func(u, p int) bool {
			v, _, _ := g.Neighbor(u, p)
			return dead[[2]int{u, v}] || dead[[2]int{v, u}]
		}
		golden := topo.GoldenDFS(g, root, deadPred, topo.Never)

		var hops []network.Hop
		net.ObserveHops(func(h network.Hop, _ *openflow.Packet, _ bool) { hops = append(hops, h) })
		tr.Trigger(root, 0)
		if _, err := net.Run(); err != nil {
			return false
		}
		return tr.Completed() == golden.Completed && sameHops(hops, golden.Hops)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTraversalDisconnectedComponent: when failures split the network,
// the traversal covers the root's side and still reports completion.
func TestTraversalPartitionedStillCompletes(t *testing.T) {
	g := topo.Line(6)
	_, done := runTraversal(t, g, 0, func(net *network.Network) {
		if err := net.SetLinkDown(2, 3, true); err != nil {
			t.Fatal(err)
		}
	})
	if !done {
		t.Fatal("partitioned traversal must still complete on the root side")
	}
}

// TestTriggerAtEveryRootIndependently: a second traversal (fresh packet)
// works after the first completed, since all per-node state lives in the
// packet, not the switches.
func TestBackToBackTraversals(t *testing.T) {
	g := topo.Ring(6)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	tr, err := InstallTraversal(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Trigger(0, 0)
	tr.Trigger(3, network.Time(1_000_000)) // well after the first finishes
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	reports := 0
	for _, pi := range c.Inbox() {
		if pi.Pkt.EthType == EthTraversal {
			reports++
		}
	}
	if reports != 2 {
		t.Fatalf("reports = %d, want 2 (state must live in the packet)", reports)
	}
}

func TestLayoutAllocations(t *testing.T) {
	g := topo.Star(5) // centre degree 4, leaves degree 1
	l := NewLayout(g)
	if l.Start.Bits != 2 {
		t.Error("start width")
	}
	if l.Par[0].Bits != 3 || l.Cur[0].Bits != 3 { // values 0..4 need 3 bits
		t.Errorf("centre fields %d/%d bits, want 3", l.Par[0].Bits, l.Cur[0].Bits)
	}
	if l.Par[1].Bits != 1 { // values 0..1
		t.Errorf("leaf par %d bits, want 1", l.Par[1].Bits)
	}
	f := l.Alloc("gid", 16)
	if f.Bits != 16 || f.Off != l.nextBit-16 {
		t.Error("alloc placement")
	}
	// Fields must not overlap: set every field to its max and read back.
	pkt := l.NewPacket(EthTraversal)
	all := append([]openflow.Field{l.Start, f}, append(l.Par, l.Cur...)...)
	for _, fl := range all {
		pkt.Store(fl, fl.Max())
	}
	for _, fl := range all {
		if pkt.Load(fl) != fl.Max() {
			t.Fatalf("field %s overlaps another", fl)
		}
	}
}

func TestSlotAssignments(t *testing.T) {
	t0a, tfa, gba := Slot(0)
	t0b, tfb, gbb := Slot(1)
	if t0a < 1 || tfa <= t0a || t0b <= tfa || tfb <= t0b || gba == gbb {
		t.Errorf("slot overlap: %d %d %d %d %d %d", t0a, tfa, t0b, tfb, gba, gbb)
	}
}

func TestTemplateValidation(t *testing.T) {
	g := topo.Line(2)
	bad := &Template{G: g, L: NewLayout(g), Eth: 1, T0: 0, TFin: 1}
	if err := bad.Compile(openflow.NewProgram("bad", 0)); err == nil {
		t.Error("T0=0 accepted")
	}
	other := topo.Line(3)
	bad2 := &Template{G: g, L: NewLayout(other), Eth: 1, T0: 1, TFin: 2}
	if err := bad2.Compile(openflow.NewProgram("bad2", 0)); err == nil {
		t.Error("foreign layout accepted")
	}
}
