package smartsouth

import "testing"

// TestAllServicesCoexist deploys every service on one network and runs
// them in sequence: the slot mechanism must keep their tables, groups and
// EtherTypes from colliding.
func TestAllServicesCoexist(t *testing.T) {
	g := Grid(3, 4)
	d := Deploy(g)

	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {11}})
	if err != nil {
		t.Fatal(err)
	}
	prio, err := d.InstallPriocast(map[uint32][]PrioMember{2: {{Node: 7, Prio: 3}, {Node: 10, Prio: 9}}})
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

	var delivered []int
	d.OnDeliver(func(sw int, pkt *Packet) { delivered = append(delivered, sw) })

	var at Time
	step := Time(10_000_000)
	snap.Trigger(0, at)
	at += step
	any.Send(0, 1, []byte("a"), at)
	at += step
	prio.Send(0, 2, []byte("p"), at)
	at += step
	crit.Check(5, at)
	at += step
	bh.Detect(0, at, 0)

	if err := d.Run(); err != nil {
		t.Fatal(err)
	}

	res, err := snap.Collect()
	if err != nil || res == nil {
		t.Fatalf("snapshot: %v %v", res, err)
	}
	if len(res.Nodes) != g.NumNodes() || len(res.Edges) != g.NumEdges() {
		t.Errorf("snapshot %d nodes %d edges, want %d/%d",
			len(res.Nodes), len(res.Edges), g.NumNodes(), g.NumEdges())
	}
	if len(delivered) != 2 || delivered[0] != 11 || delivered[1] != 10 {
		t.Errorf("deliveries = %v, want [11 10]", delivered)
	}
	if critical, ok := crit.Verdict(); !ok || critical {
		t.Errorf("criticality of grid node 5: got %v/%v, want false", critical, ok)
	}
	if rep, found, done := bh.Outcome(); !done || found {
		t.Errorf("blackhole outcome %v/%v/%v, want healthy", rep, found, done)
	}
}

func TestFacadeChaincastLoadMapAndVerify(t *testing.T) {
	g := Grid(3, 3)
	d := Deploy(g)
	cc, err := d.InstallChaincast([][]int{{4}, {8}})
	if err != nil {
		t.Fatal(err)
	}
	lm, err := d.InstallLoadMap()
	if err != nil {
		t.Fatal(err)
	}
	var hits []int
	d.OnDeliver(func(sw int, _ *Packet) { hits = append(hits, sw) })
	cc.Send(0, nil, 0)
	lm.SendData(0, 8, 1_000_000)
	lm.Monitor(0, 2_000_000)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || hits[0] != 4 || hits[1] != 8 || hits[2] != 8 {
		t.Errorf("deliveries = %v, want chain [4 8] plus data at 8", hits)
	}
	loads, done := lm.Loads()
	if !done || len(loads) != 2*g.NumEdges() {
		t.Errorf("loadmap: done=%v samples=%d", done, len(loads))
	}
	if errs := Errors(d.Verify()); len(errs) != 0 {
		t.Errorf("verify errors: %v", errs)
	}
}

func TestDeploymentAccounting(t *testing.T) {
	g := Ring(6)
	// Pinned: asserts group accounting; the stateful lowering installs
	// state entries instead of groups (covered by backend_test.go).
	d := Deploy(g, WithBackend("of13"))
	if d.FlowEntries() != 0 || d.GroupEntries() != 0 || d.ConfigBytes() != 0 {
		t.Fatal("fresh deployment must be empty")
	}
	if _, err := d.InstallTraversal(); err != nil {
		t.Fatal(err)
	}
	if d.FlowEntries() == 0 || d.GroupEntries() == 0 || d.ConfigBytes() == 0 {
		t.Fatal("installation must account for rules and groups")
	}
}

func TestUninstallRemovesOneServiceLeavesOthers(t *testing.T) {
	g := Grid(3, 3)
	d := Deploy(g)
	snap, err := d.InstallSnapshot() // slot 0
	if err != nil {
		t.Fatal(err)
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {8}}) // slot 1
	if err != nil {
		t.Fatal(err)
	}
	before := d.FlowEntries()

	d.Uninstall(0) // remove the snapshot service
	if d.FlowEntries() >= before {
		t.Fatal("uninstall removed nothing")
	}
	if errs := Errors(d.Verify()); len(errs) != 0 {
		t.Fatalf("post-uninstall verify: %v", errs)
	}

	// The anycast service still works…
	delivered := 0
	d.OnDeliver(func(int, *Packet) { delivered++ })
	any.Send(0, 1, nil, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("surviving service broken after uninstall")
	}
	// …and the removed snapshot no longer answers.
	d.Ctl.ClearInbox()
	snap.Trigger(0, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if res, _ := snap.Collect(); res != nil {
		t.Fatal("uninstalled service still reporting")
	}
}

func TestGeneratorsReexported(t *testing.T) {
	if Line(3).NumEdges() != 2 || Ring(4).NumEdges() != 4 || Star(4).NumEdges() != 3 {
		t.Error("generator aliases broken")
	}
	if g, err := FatTree(4); err != nil || g.NumNodes() != 20 {
		t.Error("fat-tree alias broken")
	}
	if Tree(7, 2).NumEdges() != 6 || Grid(2, 2).NumEdges() != 4 {
		t.Error("tree/grid aliases broken")
	}
	if RandomConnected(9, 3, 1).NumNodes() != 9 || NewGraph(2).NumNodes() != 2 {
		t.Error("random/new aliases broken")
	}
}
