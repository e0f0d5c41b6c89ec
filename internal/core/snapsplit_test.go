package core

import (
	"testing"
	"testing/quick"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

func runSplitSnapshot(t *testing.T, g *topo.Graph, root, budget int) (*Result, int, *controller.Controller, *network.Network) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	s, err := InstallSnapshotSplit(c, g, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	s.Trigger(root, 0)
	if _, err := net.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Per-fragment size bound: the budget plus the OUT/UP records in
	// flight.
	for _, pi := range c.Inbox() {
		if pi.Pkt.EthType == EthSnapSplit && len(pi.Pkt.Labels) > s.Budget+2 {
			t.Fatalf("fragment carries %d labels, budget allows %d",
				len(pi.Pkt.Labels), s.Budget+2)
		}
	}
	res, frags, err := s.Collect()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return res, frags, c, net
}

func TestSnapshotSplitExactAndBounded(t *testing.T) {
	g := topo.RandomConnected(24, 20, 5)
	res, frags, _, _ := runSplitSnapshot(t, g, 0, 8)
	if res == nil {
		t.Fatal("no snapshot")
	}
	checkSnapshotExact(t, g, res)
	// With E=44 edges the full record trace far exceeds one 8-record
	// fragment: splitting must actually happen.
	if frags < 4 {
		t.Errorf("fragments = %d, expected several at budget 8", frags)
	}
}

func TestSnapshotSplitSingleFragmentWhenSmall(t *testing.T) {
	g := topo.Line(3)
	res, frags, _, _ := runSplitSnapshot(t, g, 0, 64)
	if res == nil {
		t.Fatal("no snapshot")
	}
	checkSnapshotExact(t, g, res)
	if frags != 1 {
		t.Errorf("fragments = %d, want 1 (everything fits)", frags)
	}
}

func TestSnapshotSplitOutBandScalesWithFragments(t *testing.T) {
	g := topo.Grid(4, 4)
	_, frags, c, _ := runSplitSnapshot(t, g, 0, 6)
	// Out-of-band = 1 trigger + one packet-in per fragment.
	if c.Stats.PacketOuts != 1 || c.Stats.PacketIns != frags {
		t.Errorf("outs=%d ins=%d frags=%d", c.Stats.PacketOuts, c.Stats.PacketIns, frags)
	}
}

func TestSnapshotSplitUnderFailures(t *testing.T) {
	g := topo.Grid(4, 4)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	s, err := InstallSnapshotSplit(c, g, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(5, 6, true); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(9, 10, true); err != nil {
		t.Fatal(err)
	}
	s.Trigger(0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Collect()
	if err != nil || res == nil {
		t.Fatalf("collect: %v %v", res, err)
	}
	if len(res.Nodes) != g.NumNodes() { // grid stays connected
		t.Errorf("nodes = %d, want %d", len(res.Nodes), g.NumNodes())
	}
	if res.HasEdge(5, 6) || res.HasEdge(9, 10) {
		t.Error("failed links must not be reported")
	}
	if len(res.Edges) != g.NumEdges()-2 {
		t.Errorf("edges = %d, want %d", len(res.Edges), g.NumEdges()-2)
	}
}

func TestSnapshotSplitBudgetValidation(t *testing.T) {
	g := topo.Line(2)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	if _, err := InstallSnapshotSplit(c, g, 0, 3); err == nil {
		t.Error("budget 3 accepted")
	}
}

// Property: split snapshots decode to the exact topology for random
// graphs, roots and budgets.
func TestQuickSnapshotSplit(t *testing.T) {
	check := func(seed int64, nRaw, extraRaw, budgetRaw uint8) bool {
		n := 3 + int(nRaw%12)
		g := topo.RandomConnected(n, int(extraRaw%10), seed)
		budget := 4 + int(budgetRaw%12)
		root := int(uint64(seed) % uint64(n))

		net := network.New(g, network.Options{})
		c := controller.New(net)
		s, err := InstallSnapshotSplit(c, g, 0, budget)
		if err != nil {
			return false
		}
		s.Trigger(root, 0)
		if _, err := net.Run(); err != nil {
			return false
		}
		res, frags, err := s.Collect()
		if err != nil || res == nil || frags == 0 {
			return false
		}
		if len(res.Nodes) != n || len(res.Edges) != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if !res.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
