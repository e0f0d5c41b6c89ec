package topo

// Partition assigns every node to one of k shards and returns the
// node-to-shard map. The assignment is a greedy BFS growth: each shard is
// seeded at the lowest-numbered unassigned node and grown breadth-first
// (neighbours visited in port order) until it reaches its load target, so
// connected regions of the graph land on the same shard and the edge cut
// stays low on topologies with locality (rings, grids, trees, pods of a
// fat-tree). The walk is fully deterministic: same graph and k, same
// partition — which is what makes a sharded simulation run reproducible.
//
// A shard's load is its nodes' degree sum, not their count: a traversal
// enters a node once per port, so hop work scales with degree (balancing
// counts gave one lane of a FatTree(16) burst 1.7x the other's work).
//
// k <= 1 (or an empty graph) yields the all-zero partition; k > n is
// clamped to n so no shard is empty on non-empty graphs.
func Partition(g *Graph, k int) []int {
	n := g.NumNodes()
	part := make([]int, n)
	if k <= 1 || n == 0 {
		return part
	}
	if k > n {
		k = n
	}
	rest := 0 // load not yet assigned
	for u := range part {
		part[u] = -1
		rest += g.Degree(u)
	}
	// The load target is recomputed per shard from what is left, so an
	// overshoot (under one degree) never starves the trailing shards; a
	// shard also closes once the unassigned nodes just cover the shards
	// still to fill, so heavy nodes cannot leave one empty.
	shard, load, assigned := 0, 0, 0
	target := (rest + k - 1) / k
	var queue []int
	next := 0 // lowest candidate seed; only ever advances
	for assigned < n {
		var u int
		if len(queue) > 0 {
			u = queue[0]
			queue = queue[1:]
			if part[u] != -1 {
				continue
			}
		} else {
			for part[next] != -1 {
				next++
			}
			u = next
		}
		part[u] = shard
		assigned++
		load += g.Degree(u)
		rest -= g.Degree(u)
		if shard < k-1 && (load >= target || n-assigned == k-1-shard) {
			shard++
			load = 0
			target = (rest + (k - shard) - 1) / (k - shard)
			queue = queue[:0]
			continue
		}
		for p := 1; p <= g.Degree(u); p++ {
			if v, _, ok := g.Neighbor(u, p); ok && part[v] == -1 {
				queue = append(queue, v)
			}
		}
	}
	return part
}

// EdgeCut counts the edges whose endpoints land on different shards under
// the given partition — the cross-shard traffic a sharded simulation pays
// window synchronization for.
func EdgeCut(g *Graph, part []int) int {
	cut := 0
	for _, e := range g.Edges() {
		if part[e.U] != part[e.V] {
			cut++
		}
	}
	return cut
}
