package topo

import "testing"

// checkPartition asserts the structural invariants of any valid
// partition: every node assigned, shard ids dense in [0,k'), no shard
// empty, and determinism across calls.
func checkPartition(t *testing.T, g *Graph, k int) []int {
	t.Helper()
	part := Partition(g, k)
	if len(part) != g.NumNodes() {
		t.Fatalf("partition length %d, want %d", len(part), g.NumNodes())
	}
	want := k
	if want > g.NumNodes() {
		want = g.NumNodes()
	}
	if want < 1 {
		want = 1
	}
	sizes := make([]int, want)
	for v, s := range part {
		if s < 0 || s >= want {
			t.Fatalf("node %d assigned out-of-range shard %d (k=%d)", v, s, k)
		}
		sizes[s]++
	}
	if g.NumNodes() > 0 {
		for s, sz := range sizes {
			if sz == 0 {
				t.Fatalf("shard %d empty (k=%d, n=%d)", s, k, g.NumNodes())
			}
		}
	}
	again := Partition(g, k)
	for v := range part {
		if part[v] != again[v] {
			t.Fatalf("partition not deterministic at node %d", v)
		}
	}
	return part
}

func TestPartitionInvariants(t *testing.T) {
	ft, err := FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	isp, err := ISP(16, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"ring":    Ring(20),
		"line":    Line(7),
		"tree":    Tree(50, 2),
		"grid":    Grid(8, 8),
		"fattree": ft,
		"isp":     isp,
		"single":  Line(1),
	}
	for name, g := range graphs {
		for _, k := range []int{1, 2, 3, 4, 8, 100} {
			t.Run(name, func(t *testing.T) { checkPartition(t, g, k) })
		}
	}
}

// TestPartitionLocality: BFS growth must beat a round-robin assignment on
// topologies with locality — the whole point of the greedy partitioner.
func TestPartitionLocality(t *testing.T) {
	g := Ring(64)
	part := checkPartition(t, g, 4)
	cut := EdgeCut(g, part)
	// A ring split into 4 contiguous arcs cuts exactly 4 edges; allow a
	// little slack for target rounding but nothing near round-robin's 64.
	if cut > 8 {
		t.Fatalf("ring(64)/4 edge cut %d, want contiguous arcs (<= 8)", cut)
	}
	rr := make([]int, g.NumNodes())
	for v := range rr {
		rr[v] = v % 4
	}
	if rrCut := EdgeCut(g, rr); cut >= rrCut {
		t.Fatalf("BFS cut %d not better than round-robin cut %d", cut, rrCut)
	}
}

func TestPartitionBalance(t *testing.T) {
	g := Grid(10, 10)
	part := checkPartition(t, g, 4)
	sizes := make([]int, 4)
	for _, s := range part {
		sizes[s]++
	}
	for s, sz := range sizes {
		if sz > 25+13 || sz < 25-13 {
			t.Fatalf("shard %d size %d, want near 25: %v", s, sz, sizes)
		}
	}
}

// shardLoads sums each shard's node degrees — the load Partition balances.
func shardLoads(g *Graph, part []int, k int) []int {
	loads := make([]int, k)
	for v, s := range part {
		loads[s] += g.Degree(v)
	}
	return loads
}

// TestPartitionLoadBalance: shards are balanced by degree sum, not node
// count. A FatTree(16) halves exactly (its edge switches have half the
// ports of the rest), and elsewhere the heaviest shard overshoots the
// mean by less than one node's degree.
func TestPartitionLoadBalance(t *testing.T) {
	ft, err := FatTree(16)
	if err != nil {
		t.Fatal(err)
	}
	if loads := shardLoads(ft, checkPartition(t, ft, 2), 2); loads[0] != 2048 || loads[1] != 2048 {
		t.Errorf("fattree(16)/2 degree sums %v, want [2048 2048]", loads)
	}
	isp, err := ISP(20, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"isp":    isp,
		"random": RandomConnected(240, 120, 1),
		"ring":   Ring(20),
	}
	for name, g := range graphs {
		total, maxDeg := 0, 0
		for v := 0; v < g.NumNodes(); v++ {
			total += g.Degree(v)
			maxDeg = max(maxDeg, g.Degree(v))
		}
		for _, k := range []int{2, 4, 8} {
			loads := shardLoads(g, checkPartition(t, g, k), k)
			heaviest := 0
			for _, l := range loads {
				heaviest = max(heaviest, l)
			}
			if float64(heaviest) > float64(total)/float64(k)+float64(maxDeg) {
				t.Errorf("%s/%d degree sums %v: heaviest %d exceeds mean %.1f + max degree %d",
					name, k, loads, heaviest, float64(total)/float64(k), maxDeg)
			}
		}
	}
}

func TestClos(t *testing.T) {
	g, err := Clos(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 20 || g.NumEdges() != 64 {
		t.Fatalf("clos(4,16): %d nodes %d edges, want 20/64", g.NumNodes(), g.NumEdges())
	}
	for l := 0; l < 16; l++ {
		if g.Degree(4+l) != 4 {
			t.Fatalf("leaf %d degree %d, want 4", l, g.Degree(4+l))
		}
	}
	for s := 0; s < 4; s++ {
		if g.Degree(s) != 16 {
			t.Fatalf("spine %d degree %d, want 16", s, g.Degree(s))
		}
	}
	if _, err := Clos(0, 3); err == nil {
		t.Fatal("Clos(0,3) accepted")
	}
}

func TestISP(t *testing.T) {
	g, err := ISP(20, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Fatalf("isp(20,10): %d nodes, want 200", g.NumNodes())
	}
	if !connected(g) {
		t.Fatal("isp(20,10) not connected")
	}
	// Determinism for a fixed seed.
	h, _ := ISP(20, 10, 7)
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("isp not deterministic: %d vs %d edges", g.NumEdges(), h.NumEdges())
	}
	for i, e := range g.Edges() {
		if h.Edges()[i] != e {
			t.Fatalf("isp not deterministic at edge %d", i)
		}
	}
	// Degenerate shapes still connect.
	for _, c := range [][2]int{{1, 1}, {1, 5}, {2, 1}, {3, 2}, {5, 1}} {
		g, err := ISP(c[0], c[1], 1)
		if err != nil {
			t.Fatalf("isp%v: %v", c, err)
		}
		if !connected(g) {
			t.Fatalf("isp%v not connected", c)
		}
	}
	if _, err := ISP(0, 1, 0); err == nil {
		t.Fatal("ISP(0,1) accepted")
	}
}

// connected reports graph connectivity by BFS from node 0.
func connected(g *Graph) bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 1; p <= g.Degree(u); p++ {
			if v, _, ok := g.Neighbor(u, p); ok && !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}
