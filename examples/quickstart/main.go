// Quickstart: take an in-band topology snapshot of a random network —
// including after link failures, with no recompilation — and print what
// the data plane reported back.
package main

import (
	"fmt"
	"log"
	"sort"

	"smartsouth"
)

func printSnapshot(res *smartsouth.SnapshotResult) {
	nodes := make([]int, 0, len(res.Nodes))
	for n := range res.Nodes {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	fmt.Printf("  %d nodes: %v\n", len(nodes), nodes)
	edges := append([]smartsouth.Edge(nil), res.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	fmt.Printf("  %d links:\n", len(edges))
	for _, e := range edges {
		fmt.Printf("    %d(port %d) -- %d(port %d)\n", e.U, e.PU, e.V, e.PV)
	}
}

func main() {
	// A random connected 12-switch network with a few redundant links.
	// WithTrace turns on the per-packet hop trace so we can watch the DFS
	// walk the network rule by rule.
	g := smartsouth.RandomConnected(12, 6, 42)
	d := smartsouth.Deploy(g, smartsouth.WithTrace(2048))

	snap, err := d.InstallSnapshot()
	if err != nil {
		log.Fatal(err)
	}

	// One out-of-band message to any single switch starts the snapshot;
	// the DFS trigger packet does the rest in the data plane.
	fmt.Println("== snapshot of the healthy network (triggered at switch 0) ==")
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}
	res, err := snap.Collect()
	if err != nil {
		log.Fatal(err)
	}
	printSnapshot(res)
	fmt.Printf("  ground truth: %d nodes, %d links — match: %v\n",
		g.NumNodes(), g.NumEdges(), len(res.Nodes) == g.NumNodes() && len(res.Edges) == g.NumEdges())

	// Fail two links. Nothing is reinstalled: the fast-failover groups
	// route the traversal around the failures.
	e1, e2 := g.Edges()[0], g.Edges()[3]
	fmt.Printf("\n== failing links %d-%d and %d-%d, snapshotting again ==\n", e1.U, e1.V, e2.U, e2.V)
	if err := d.Net.SetLinkDown(e1.U, e1.V, true); err != nil {
		log.Fatal(err)
	}
	if err := d.Net.SetLinkDown(e2.U, e2.V, true); err != nil {
		log.Fatal(err)
	}
	d.Ctl.ClearInbox()
	d.Trace.Reset() // keep only the post-failure sweep in the trace
	snap.Trigger(0, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}
	res, err = snap.Collect()
	if err != nil {
		log.Fatal(err)
	}
	printSnapshot(res)
	fmt.Println("  (the failed links are gone; everything still reachable is reported)")

	fmt.Printf("\ncontrol-plane cost: %d packet-outs, %d packet-ins for two snapshots\n",
		d.Ctl.Stats.PacketOuts, d.Ctl.Stats.PacketIns)

	// The observability layer saw every hop: show the first few pipeline
	// executions (switch, matched rules, decoded DFS tag state) and the
	// aggregated per-service metrics.
	fmt.Println("\n== first hops of the second sweep, from the trace ==")
	events := d.Trace.Events()
	for i, ev := range events {
		if i >= 5 {
			fmt.Printf("  ... %d more\n", len(events)-i)
			break
		}
		fmt.Printf("  %s\n", ev)
	}
	for _, m := range d.MetricsSnapshot() {
		fmt.Printf("\nservice %q: %d in-band messages (%d bytes) over %d ns, %d flow-mods to install\n",
			m.Service, m.InBandMsgs, m.InBandBytes, int64(m.WallClock), m.FlowMods)
	}
}
