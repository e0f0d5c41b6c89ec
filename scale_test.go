package smartsouth

import (
	"testing"

	"smartsouth/internal/topo"
)

// TestScaleFewHundredNodes exercises the paper's headline scalability
// claim end to end: on a ~300-switch network, install snapshot, critical
// and smart-counter blackhole detection simultaneously, run all three,
// and check the per-switch state and tag budgets.
func TestScaleFewHundredNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	const n = 300
	g := RandomConnected(n, n/2, 77)
	d := Deploy(g)

	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	crit, err := d.InstallCritical()
	if err != nil {
		t.Fatal(err)
	}
	bh, err := d.InstallBlackholeCounter()
	if err != nil {
		t.Fatal(err)
	}

	// Budgets: per-switch rule state within the NoviKit's 32 MB; DFS tag
	// within the paper's 0.5 KB data section.
	if perSwitch := d.ConfigBytes() / n; perSwitch > 32*1024*1024 {
		t.Fatalf("per-switch config %dB exceeds 32MB", perSwitch)
	}
	if tag := snap.L.TagBytes(); tag > 512 {
		t.Errorf("snapshot tag %dB exceeds the 0.5KB packet data budget", tag)
	}

	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := snap.Collect()
	if err != nil || res == nil {
		t.Fatalf("snapshot failed: %v %v", res, err)
	}
	if len(res.Nodes) != n || len(res.Edges) != g.NumEdges() {
		t.Fatalf("snapshot %d/%d, want %d/%d", len(res.Nodes), len(res.Edges), n, g.NumEdges())
	}

	// Criticality of one node, verified against the oracle.
	oracle := topo.ArticulationPoints(g)
	node := n / 2
	crit.Check(node, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	got, ok := crit.Verdict()
	if !ok || got != oracle[node] {
		t.Errorf("criticality of %d: got %v/%v, oracle %v", node, got, ok, oracle[node])
	}

	// Blackhole detection across the large fabric.
	hole := g.Edges()[g.NumEdges()/3]
	if err := d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
		t.Fatal(err)
	}
	bh.Detect(0, d.Net.Sim.Now()+1, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rep, found, done := bh.Outcome()
	if !done || !found {
		t.Fatalf("blackhole not found at scale: %v %v %v", rep, found, done)
	}
	okFwd := rep.Switch == hole.U && rep.Peer == hole.V
	okRev := rep.Switch == hole.V && rep.Peer == hole.U
	if !okFwd && !okRev {
		t.Errorf("reported %v, want an endpoint of %d-%d", rep, hole.U, hole.V)
	}
}
