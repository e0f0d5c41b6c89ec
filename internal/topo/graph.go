// Package topo provides port-numbered undirected graphs, topology
// generators, and plain-Go reference ("golden") algorithms. The golden
// algorithms are used only as test oracles and baselines; the data plane
// never calls them.
//
//simlint:deterministic
package topo

import "fmt"

// half is one endpoint's view of an edge: the neighbour node and the
// neighbour's port for the reverse direction.
type half struct {
	peer     int
	peerPort int
}

// Edge is an undirected edge with the port numbers on both endpoints.
type Edge struct {
	U, V   int // node IDs, U < V by construction order is NOT guaranteed
	PU, PV int // port of the edge at U and at V (1-based)
}

// Graph is a simple undirected graph whose nodes have consecutively
// numbered ports 1..Degree(v), exactly the model OpenFlow switches expose.
// Node IDs are 0..NumNodes-1.
type Graph struct {
	adj   [][]half // adj[u][p-1] is the half edge at port p of u
	edges []Edge
}

// NewGraph returns a graph with n isolated nodes.
func NewGraph(n int) *Graph {
	return &Graph{adj: make([][]half, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns all edges in insertion order. Callers must not mutate.
func (g *Graph) Edges() []Edge { return g.edges }

// Degree returns the number of ports of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for u := range g.adj {
		if len(g.adj[u]) > d {
			d = len(g.adj[u])
		}
	}
	return d
}

// AddEdge connects u and v, assigning the next free port on each side, and
// returns the resulting edge. Self-loops and duplicate edges are rejected:
// the SmartSouth model (like the paper) assumes a simple graph.
func (g *Graph) AddEdge(u, v int) (Edge, error) {
	if u == v {
		return Edge{}, fmt.Errorf("topo: self-loop at node %d", u)
	}
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return Edge{}, fmt.Errorf("topo: edge (%d,%d) out of range", u, v)
	}
	for _, h := range g.adj[u] {
		if h.peer == v {
			return Edge{}, fmt.Errorf("topo: duplicate edge (%d,%d)", u, v)
		}
	}
	pu := len(g.adj[u]) + 1
	pv := len(g.adj[v]) + 1
	g.adj[u] = append(g.adj[u], half{peer: v, peerPort: pv})
	g.adj[v] = append(g.adj[v], half{peer: u, peerPort: pu})
	e := Edge{U: u, V: v, PU: pu, PV: pv}
	g.edges = append(g.edges, e)
	return e, nil
}

// MustAddEdge is AddEdge for generators with known-good inputs.
func (g *Graph) MustAddEdge(u, v int) Edge {
	e, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return e
}

// Neighbor returns the node and its port reached by leaving u via port p,
// or ok=false if p is not a connected port of u.
func (g *Graph) Neighbor(u, p int) (v, vport int, ok bool) {
	if u < 0 || u >= len(g.adj) || p < 1 || p > len(g.adj[u]) {
		return 0, 0, false
	}
	h := g.adj[u][p-1]
	return h.peer, h.peerPort, true
}

// PortTo returns the port of u that leads to v, or 0 if they are not
// adjacent.
func (g *Graph) PortTo(u, v int) int {
	for p, h := range g.adj[u] {
		if h.peer == v {
			return p + 1
		}
	}
	return 0
}

// HasEdge reports adjacency.
func (g *Graph) HasEdge(u, v int) bool { return g.PortTo(u, v) != 0 }
