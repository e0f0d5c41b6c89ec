package topo

import (
	"testing"
	"testing/quick"
)

func TestAddEdgeAssignsConsecutivePorts(t *testing.T) {
	g := NewGraph(3)
	e1 := g.MustAddEdge(0, 1)
	e2 := g.MustAddEdge(0, 2)
	if e1.PU != 1 || e1.PV != 1 || e2.PU != 2 || e2.PV != 1 {
		t.Errorf("ports: %+v %+v", e1, e2)
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 {
		t.Errorf("degrees: %d %d", g.Degree(0), g.Degree(1))
	}
	if v, vp, ok := g.Neighbor(0, 2); !ok || v != 2 || vp != 1 {
		t.Errorf("Neighbor(0,2) = %d,%d,%v", v, vp, ok)
	}
	if g.PortTo(2, 0) != 1 || g.PortTo(1, 2) != 0 {
		t.Error("PortTo wrong")
	}
}

func TestAddEdgeRejectsLoopsAndDuplicates(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	g.MustAddEdge(0, 1)
	if _, err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range accepted")
	}
}

// portsBijective checks the fundamental invariant: leaving u via p and
// coming back via the reported reverse port returns to (u, p).
func portsBijective(t *testing.T, g *Graph) {
	t.Helper()
	for u := 0; u < g.NumNodes(); u++ {
		for p := 1; p <= g.Degree(u); p++ {
			v, vp, ok := g.Neighbor(u, p)
			if !ok {
				t.Fatalf("port (%d,%d) unconnected", u, p)
			}
			bu, bp, ok := g.Neighbor(v, vp)
			if !ok || bu != u || bp != p {
				t.Fatalf("port bijection broken at (%d,%d)", u, p)
			}
		}
	}
}

func TestGenerators(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		nodes int
		edges int
	}{
		{"line", Line(10), 10, 9},
		{"ring", Ring(10), 10, 10},
		{"star", Star(10), 10, 9},
		{"tree", Tree(15, 2), 15, 14},
		{"grid", Grid(4, 5), 20, 31},
		{"random", RandomConnected(30, 12, 1), 30, 41},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.NumNodes() != c.nodes || c.g.NumEdges() != c.edges {
				t.Fatalf("n=%d m=%d, want %d/%d", c.g.NumNodes(), c.g.NumEdges(), c.nodes, c.edges)
			}
			if !Connected(c.g) {
				t.Error("not connected")
			}
			portsBijective(t, c.g)
		})
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := RandomConnected(25, 10, 42)
	b := RandomConnected(25, 10, 42)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("different sizes")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestFatTree(t *testing.T) {
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 { // 4 core + 8 agg + 8 edge
		t.Fatalf("nodes = %d, want 20", g.NumNodes())
	}
	if g.NumEdges() != 32 { // 16 core-agg + 16 agg-edge
		t.Fatalf("edges = %d, want 32", g.NumEdges())
	}
	if !Connected(g) {
		t.Error("fat-tree not connected")
	}
	portsBijective(t, g)
	if _, err := FatTree(3); err == nil {
		t.Error("odd arity accepted")
	}
}

func TestGoldenDFSCompleteCoverage(t *testing.T) {
	for _, g := range []*Graph{Line(8), Ring(9), Tree(13, 3), Grid(4, 4), RandomConnected(20, 15, 7)} {
		tr := GoldenDFS(g, 0, Never, Never)
		if !tr.Completed {
			t.Fatal("traversal incomplete")
		}
		if len(tr.FirstVisits) != g.NumNodes() {
			t.Fatalf("visited %d of %d nodes", len(tr.FirstVisits), g.NumNodes())
		}
		want := 4*g.NumEdges() - 2*g.NumNodes() + 2
		if len(tr.Hops) != want {
			t.Fatalf("hops = %d, want 4E-2n+2 = %d", len(tr.Hops), want)
		}
	}
}

func TestGoldenDFSSingleNode(t *testing.T) {
	g := NewGraph(1)
	tr := GoldenDFS(g, 0, Never, Never)
	if !tr.Completed || len(tr.Hops) != 0 {
		t.Errorf("single node: completed=%v hops=%d", tr.Completed, len(tr.Hops))
	}
}

func TestGoldenDFSWithFailedLinks(t *testing.T) {
	g := Ring(6)
	// Fail the link between 2 and 3 (both directions, as a link failure
	// would be seen by both endpoints' liveness).
	p23 := g.PortTo(2, 3)
	p32 := g.PortTo(3, 2)
	dead := func(u, p int) bool { return (u == 2 && p == p23) || (u == 3 && p == p32) }
	tr := GoldenDFS(g, 0, dead, Never)
	if !tr.Completed {
		t.Fatal("traversal should survive a failed link on a ring")
	}
	if len(tr.FirstVisits) != 6 {
		t.Fatalf("visited %d nodes, want all 6 (ring minus one edge is a path)", len(tr.FirstVisits))
	}
}

func TestGoldenDFSBlackholeSwallows(t *testing.T) {
	g := Line(4)
	bh := func(u, p int) bool { return u == 1 && p == g.PortTo(1, 2) }
	tr := GoldenDFS(g, 0, Never, bh)
	if tr.Completed {
		t.Fatal("traversal must die at the blackhole")
	}
	if tr.LostAt == nil || tr.LostAt.From != 1 || tr.LostAt.To != 2 {
		t.Fatalf("LostAt = %+v", tr.LostAt)
	}
}

// Property: on random connected graphs the golden DFS from a random root
// visits every node and uses exactly 4E-2n+2 messages.
func TestQuickGoldenDFS(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw uint8) bool {
		n := 2 + int(nRaw%40)
		extra := int(extraRaw % 30)
		g := RandomConnected(n, extra, seed)
		root := int(uint64(seed) % uint64(n))
		tr := GoldenDFS(g, root, Never, Never)
		return tr.Completed &&
			len(tr.FirstVisits) == n &&
			len(tr.Hops) == 4*g.NumEdges()-2*n+2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bruteForceCut decides criticality by deleting the node and checking
// whether the remainder stays connected.
func bruteForceCut(g *Graph, v int) bool {
	if g.NumNodes() <= 2 {
		return false
	}
	dead := func(u, p int) bool {
		if u == v {
			return true
		}
		w, _, _ := g.Neighbor(u, p)
		return w == v
	}
	start := 0
	if start == v {
		start = 1
	}
	reach := Reachable(g, start, dead)
	return len(reach) != g.NumNodes()-1
}

func TestArticulationPointsAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := RandomConnected(14, int(seed%8), seed)
		cut := ArticulationPoints(g)
		for v := 0; v < g.NumNodes(); v++ {
			if cut[v] != bruteForceCut(g, v) {
				t.Fatalf("seed %d node %d: tarjan=%v brute=%v", seed, v, cut[v], bruteForceCut(g, v))
			}
		}
	}
}

func TestArticulationPointsKnownShapes(t *testing.T) {
	// Every interior node of a line is a cut vertex; no ring node is.
	cut := ArticulationPoints(Line(5))
	for v := 0; v < 5; v++ {
		want := v >= 1 && v <= 3
		if cut[v] != want {
			t.Errorf("line node %d: cut=%v want %v", v, cut[v], want)
		}
	}
	if len(ArticulationPoints(Ring(6))) != 0 {
		t.Error("ring has no cut vertices")
	}
	cut = ArticulationPoints(Star(5))
	if !cut[0] || len(cut) != 1 {
		t.Errorf("star: cut=%v, want only the centre", cut)
	}
}

func TestBFSPaths(t *testing.T) {
	g := Grid(3, 3)
	dst := 8
	next := BFSPaths(g, dst)
	if len(next) != 8 {
		t.Fatalf("routes for %d nodes, want 8", len(next))
	}
	// Following next-hops from every node must reach dst within n hops.
	for start := 0; start < 9; start++ {
		if start == dst {
			continue
		}
		u := start
		for hops := 0; u != dst; hops++ {
			if hops > 9 {
				t.Fatalf("routing loop from %d", start)
			}
			p, ok := next[u]
			if !ok {
				t.Fatalf("no route at %d", u)
			}
			u, _, _ = g.Neighbor(u, p)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(60, 2, 7)
	if g.NumNodes() != 60 || !Connected(g) {
		t.Fatalf("n=%d connected=%v", g.NumNodes(), Connected(g))
	}
	portsBijective(t, g)
	// Edge count: 1 initial + ~2 per node after the first two.
	if g.NumEdges() < 59 || g.NumEdges() > 2*60 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	// Heavy tail: the maximum degree should well exceed the mean.
	mean := 2 * g.NumEdges() / g.NumNodes()
	if g.MaxDegree() < 2*mean {
		t.Errorf("max degree %d vs mean %d: no preferential attachment visible", g.MaxDegree(), mean)
	}
	// Determinism.
	h := BarabasiAlbert(60, 2, 7)
	if h.NumEdges() != g.NumEdges() {
		t.Error("not deterministic")
	}
	for i, e := range g.Edges() {
		if h.Edges()[i] != e {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestWaxman(t *testing.T) {
	g := Waxman(50, 0.4, 0.2, 11)
	if g.NumNodes() != 50 || !Connected(g) {
		t.Fatalf("n=%d connected=%v", g.NumNodes(), Connected(g))
	}
	portsBijective(t, g)
	if g.NumEdges() < 49 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	// Determinism.
	h := Waxman(50, 0.4, 0.2, 11)
	if h.NumEdges() != g.NumEdges() {
		t.Error("not deterministic")
	}
	// Higher alpha densifies.
	dense := Waxman(50, 0.9, 0.5, 11)
	if dense.NumEdges() <= g.NumEdges() {
		t.Errorf("alpha 0.9 gave %d edges vs %d", dense.NumEdges(), g.NumEdges())
	}
}

// TestTraversalOnNewFamilies: the compiled template works on the
// internet-like topologies too (sanity across generator families).
func TestGoldenOnNewFamilies(t *testing.T) {
	for _, g := range []*Graph{BarabasiAlbert(40, 2, 3), Waxman(40, 0.4, 0.2, 3)} {
		tr := GoldenDFS(g, 0, Never, Never)
		if !tr.Completed || len(tr.FirstVisits) != g.NumNodes() {
			t.Fatalf("golden DFS failed on family graph: %v %d", tr.Completed, len(tr.FirstVisits))
		}
	}
}

func TestMeasure(t *testing.T) {
	m := Measure(Ring(6))
	if m.Nodes != 6 || m.Edges != 6 || m.MinDegree != 2 || m.MaxDegree != 2 ||
		m.MeanDegree != 2 || m.Diameter != 3 {
		t.Fatalf("ring metrics: %+v", m)
	}
	m = Measure(Line(5))
	if m.Diameter != 4 || m.MinDegree != 1 {
		t.Fatalf("line metrics: %+v", m)
	}
	m = Measure(Star(5))
	if m.Diameter != 2 || m.MaxDegree != 4 {
		t.Fatalf("star metrics: %+v", m)
	}
	// Disconnected: two isolated nodes.
	m = Measure(NewGraph(2))
	if m.Diameter != -1 {
		t.Fatalf("disconnected diameter: %+v", m)
	}
}

func TestReachable(t *testing.T) {
	g := Line(5)
	dead := func(u, p int) bool { return u == 2 && p == g.PortTo(2, 3) }
	r := Reachable(g, 0, dead)
	if len(r) != 3 || r[3] || r[4] {
		t.Errorf("reachable = %v, want {0,1,2}", r)
	}
}
