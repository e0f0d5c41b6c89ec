package main

import (
	"fmt"

	"smartsouth/internal/core"
	"smartsouth/internal/topo"
)

// Oracles: every answer the benchmark collects is compared with what the
// generated input says it must be. They are plain functions of the answer so
// the tests can hand them corrupted answers.

// sweepMsgs is the exact in-band cost of one full traversal in this model
// (the paper's 4E-2n, boundary terms kept).
func sweepMsgs(g *topo.Graph) int { return 4*g.NumEdges() - 2*g.NumNodes() + 2 }

// checkTopology rejects a decoded snapshot that is not exactly the graph.
func checkTopology(g *topo.Graph, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("snapshot: no report collected")
	}
	if len(res.Nodes) != g.NumNodes() {
		return fmt.Errorf("snapshot: %d nodes, graph has %d", len(res.Nodes), g.NumNodes())
	}
	if len(res.Edges) != g.NumEdges() {
		return fmt.Errorf("snapshot: %d edges, graph has %d", len(res.Edges), g.NumEdges())
	}
	for _, e := range res.Edges {
		if !g.HasEdge(e.U, e.V) {
			return fmt.Errorf("snapshot: edge %d-%d is not in the graph", e.U, e.V)
		}
	}
	return nil
}

// checkSnapshot is checkTopology plus the Table-2 message count of a plain
// (unsplit) snapshot.
func checkSnapshot(g *topo.Graph, res *core.Result, inband int) error {
	if err := checkTopology(g, res); err != nil {
		return err
	}
	if want := sweepMsgs(g); inband != want {
		return fmt.Errorf("snapshot: %d in-band messages, want 4E-2n+2 = %d", inband, want)
	}
	return nil
}

// checkDelivered rejects a message delivered anywhere but at one of want
// (anycast: any member; priocast: the one highest-priority member).
func checkDelivered(service string, got int, want []int) error {
	for _, w := range want {
		if got == w {
			return nil
		}
	}
	if got < 0 {
		return fmt.Errorf("%s: not delivered, want one of %v", service, want)
	}
	return fmt.Errorf("%s: delivered at %d, want one of %v", service, got, want)
}

// checkCritical compares a criticality verdict with the articulation-point
// oracle.
func checkCritical(node int, critical, ok bool, cuts map[int]bool) error {
	if !ok {
		return fmt.Errorf("critical: no verdict for node %d", node)
	}
	if critical != cuts[node] {
		return fmt.Errorf("critical: node %d reported critical=%v, oracle says %v", node, critical, cuts[node])
	}
	return nil
}

// checkHealthy rejects a blackhole detection round on a fabric without
// blackholes that found one or never finished.
func checkHealthy(found, done bool) error {
	if !done {
		return fmt.Errorf("blackhole: no verdict on a healthy fabric")
	}
	if found {
		return fmt.Errorf("blackhole: reported a blackhole on a healthy fabric")
	}
	return nil
}

// checkBurst checks a burst of concurrent sweeps: within the per-sweep 4E
// bound, and the same count as the reference (the first burst, or the same
// burst at another shard count) when ref > 0.
func checkBurst(g *topo.Graph, sweeps, inband, ref int) error {
	if bound := sweeps * 4 * g.NumEdges(); inband <= 0 || inband > bound {
		return fmt.Errorf("burst: %d in-band messages for %d sweeps, bound %d", inband, sweeps, bound)
	}
	if ref > 0 && inband != ref {
		return fmt.Errorf("burst: %d in-band messages, reference burst had %d", inband, ref)
	}
	return nil
}
