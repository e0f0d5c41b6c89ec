package topo

// This file holds the plain-Go reference implementations used as test
// oracles: a faithful simulation of the paper's Algorithm 1 (the SmartSouth
// DFS template), reachability, and an articulation-point finder for the
// critical-node service.

// Hop is one in-band message crossing a link.
type Hop struct {
	From, FromPort int
	To, ToPort     int
}

// Traversal is the outcome of the golden Algorithm-1 simulation.
type Traversal struct {
	Hops        []Hop
	FirstVisits []int       // nodes in first-visit order; the root is first
	Parent      map[int]int // DFS parent port per visited non-root node
	Completed   bool        // the trigger packet returned to the root
	LostAt      *Hop        // set when a blackhole swallowed the packet
}

// PortPredicate reports a property of the directed port (u, p), e.g. "is
// this port failed" or "does this direction silently drop".
type PortPredicate func(u, p int) bool

// Never is the PortPredicate that always reports false.
func Never(int, int) bool { return false }

// GoldenDFS simulates Algorithm 1 of the paper on g, starting at root.
// portDead marks detectably-failed ports (fast-failover skips them);
// blackhole marks directed crossings that silently swallow the packet
// (liveness does NOT detect them — that is the point of the blackhole
// detection service).
//
// The simulation mirrors the pseudo code line by line: on first visit a
// node stores its parent port and probes ports in increasing order,
// skipping failed ports and the parent; expected returns (in == cur)
// advance to the next port; unexpected arrivals bounce straight back; when
// the port counter passes the degree the packet is returned to the parent,
// and the root finishing means termination.
func GoldenDFS(g *Graph, root int, portDead, blackhole PortPredicate) *Traversal {
	tr := &Traversal{Parent: make(map[int]int)}
	n := g.NumNodes()
	if n == 0 || root < 0 || root >= n {
		return tr
	}
	par := make([]int, n)
	cur := make([]int, n)

	// advance implements lines 12-19: starting from candidate port
	// `from`, find the next live non-parent port, or fall back to the
	// parent port (0 at the root, which means Finish).
	advance := func(i, from int) int {
		out := from
		if out == g.Degree(i)+1 {
			return par[i]
		}
		for portDead(i, out) || out == par[i] {
			out++
			if out == g.Degree(i)+1 {
				return par[i]
			}
		}
		return out
	}

	tr.FirstVisits = append(tr.FirstVisits, root)
	u := root
	out := advance(root, 1)
	cur[root] = out
	if out == 0 {
		// Isolated root or all ports failed: the traversal trivially
		// completes without sending anything.
		tr.Completed = true
		return tr
	}

	// 4E+2 is the exact worst case; anything above it is a bug.
	limit := 4*g.NumEdges() + 2
	for step := 0; step <= limit; step++ {
		v, vp, ok := g.Neighbor(u, out)
		if !ok {
			// advance never selects a non-existent port; ports 1..deg
			// are always connected in this model.
			panic("topo: golden DFS selected an unconnected port")
		}
		hop := Hop{From: u, FromPort: out, To: v, ToPort: vp}
		tr.Hops = append(tr.Hops, hop)
		if blackhole(u, out) {
			tr.LostAt = &hop
			return tr
		}

		in := vp
		var next int
		switch {
		case cur[v] == 0: // first visit (line 5)
			par[v] = in
			tr.FirstVisits = append(tr.FirstVisits, v)
			tr.Parent[v] = in
			next = advance(v, 1)
		case in == cur[v]: // expected return (line 7)
			next = advance(v, cur[v]+1)
		default: // unexpected: bounce (lines 9-11), cur unchanged
			u, out = v, in
			continue
		}
		cur[v] = next
		if next == 0 {
			// Only the root has parent 0: Finish (lines 24-25).
			tr.Completed = true
			return tr
		}
		u, out = v, next
	}
	// Exceeded the theoretical bound: report as incomplete.
	return tr
}

// Reachable returns the set of nodes reachable from root over ports for
// which portDead is false (checked in both directions).
func Reachable(g *Graph, root int, portDead PortPredicate) map[int]bool {
	seen := map[int]bool{root: true}
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 1; p <= g.Degree(u); p++ {
			v, vp, _ := g.Neighbor(u, p)
			if portDead(u, p) || portDead(v, vp) || seen[v] {
				continue
			}
			seen[v] = true
			queue = append(queue, v)
		}
	}
	return seen
}

// Connected reports whether the whole graph is one component.
//
//simlint:testapi reference oracle the generator tests check connectivity against
func Connected(g *Graph) bool {
	if g.NumNodes() == 0 {
		return true
	}
	return len(Reachable(g, 0, Never)) == g.NumNodes()
}

// ArticulationPoints returns the set of cut vertices of g (assumed
// connected is NOT required; the classic DFS low-link algorithm is run per
// component). This is the oracle for the critical-node service.
func ArticulationPoints(g *Graph) map[int]bool {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
		disc[i] = -1
	}
	cut := make(map[int]bool)
	timer := 0

	// Iterative DFS to survive large graphs.
	type frame struct{ u, pi int }
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		rootChildren := 0
		stack := []frame{{u: s, pi: 0}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.u
			if f.pi < g.Degree(u) {
				f.pi++
				v, _, _ := g.Neighbor(u, f.pi)
				if disc[v] == -1 {
					parent[v] = u
					if u == s {
						rootChildren++
					}
					disc[v] = timer
					low[v] = timer
					timer++
					stack = append(stack, frame{u: v, pi: 0})
				} else if v != parent[u] && disc[v] < low[u] {
					low[u] = disc[v]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[u]; p != -1 {
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if p != s && low[u] >= disc[p] {
					cut[p] = true
				}
			}
		}
		if rootChildren > 1 {
			cut[s] = true
		}
	}
	return cut
}

// Metrics summarises a topology's shape, for characterising the families
// used in the evaluation.
type Metrics struct {
	Nodes, Edges int
	MinDegree    int
	MeanDegree   float64
	MaxDegree    int
	Diameter     int // -1 when disconnected
}

// Measure computes the metrics (diameter by BFS from every node).
func Measure(g *Graph) Metrics {
	n := g.NumNodes()
	m := Metrics{Nodes: n, Edges: g.NumEdges(), MaxDegree: g.MaxDegree()}
	if n == 0 {
		return m
	}
	m.MinDegree = g.Degree(0)
	total := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		total += d
		if d < m.MinDegree {
			m.MinDegree = d
		}
	}
	m.MeanDegree = float64(total) / float64(n)

	dist := make([]int, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for p := 1; p <= g.Degree(u); p++ {
				v, _, _ := g.Neighbor(u, p)
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d == -1 {
				m.Diameter = -1
				return m
			}
			if d > m.Diameter {
				m.Diameter = d
			}
		}
	}
	return m
}

// BFSPaths returns, for every node reachable from dst, the port to take
// toward dst (next-hop routing table keyed by node). Used by the baseline
// controller's shortest-path forwarding.
func BFSPaths(g *Graph, dst int) map[int]int {
	next := make(map[int]int)
	seen := map[int]bool{dst: true}
	queue := []int{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for p := 1; p <= g.Degree(u); p++ {
			v, vp, _ := g.Neighbor(u, p)
			if seen[v] {
				continue
			}
			seen[v] = true
			next[v] = vp // from v, the port toward u (and on to dst)
			queue = append(queue, v)
		}
	}
	return next
}
