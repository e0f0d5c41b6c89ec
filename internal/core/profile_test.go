package core

import (
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// TestSnapshotLocalReportDeliversInBand exercises the §3 remark: the
// completion report goes to a server on the root's local port, so the
// whole snapshot — request excluded — is in-band.
func TestSnapshotLocalReportDeliversInBand(t *testing.T) {
	g := topo.Ring(6)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	s, err := InstallSnapshotLocal(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	var report *openflow.Packet
	net.OnSelf = func(sw int, pkt *openflow.Packet) {
		if sw == 2 {
			report = pkt
		}
	}
	s.Trigger(2, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("no local report")
	}
	res, err := DecodeRecords(report.Labels)
	if err != nil || len(res.Nodes) != 6 || len(res.Edges) != 6 {
		t.Fatalf("decoded %v (%v)", res, err)
	}
	// Zero packet-ins: the monitoring loop is complete without the
	// controller channel.
	if c.Stats.PacketIns != 0 {
		t.Errorf("packet-ins = %d, want 0", c.Stats.PacketIns)
	}
}

// TestRuleHitProfile uses the per-entry hardware counters to verify the
// traversal exercises exactly the rules Algorithm 1 predicts: every
// non-root node's first-visit rule fires once, the root's start rule
// fires once, and total expected-return hits equal the number of advances.
func TestRuleHitProfile(t *testing.T) {
	g := topo.RandomConnected(12, 8, 13)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	tr, err := InstallTraversal(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Trigger(0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !tr.Completed() {
		t.Fatal("incomplete")
	}

	hits := func(sw int, substr string) (total uint64) {
		for _, tid := range net.Switch(sw).TableIDs() {
			net.Switch(sw).Table(tid).Each(func(e *openflow.FlowEntry, n uint64) bool {
				if strings.Contains(e.Cookie, substr) {
					total += n
				}
				return true
			})
		}
		return total
	}

	for v := 0; v < g.NumNodes(); v++ {
		wantStart := uint64(0)
		if v == 0 {
			wantStart = 1
		}
		if got := hits(v, "/start"); got != wantStart {
			t.Errorf("node %d start hits = %d, want %d", v, got, wantStart)
		}
		wantFirst := uint64(1)
		if v == 0 {
			wantFirst = 0
		}
		if got := hits(v, "/first-in"); got != wantFirst {
			t.Errorf("node %d first-visit hits = %d, want %d", v, got, wantFirst)
		}
		// Each node advances exactly Degree times minus the parent skip:
		// expected returns = number of ports it probed itself. Root
		// probes all deg ports; non-root probes deg-1 (skipping parent).
		wantRet := uint64(g.Degree(v))
		if v != 0 {
			wantRet = uint64(g.Degree(v) - 1)
		}
		if got := hits(v, "/ret-"); got != wantRet {
			t.Errorf("node %d expected-return hits = %d, want %d", v, got, wantRet)
		}
		// The finish rule fires exactly once, at the root.
		if got := hits(v, "/finish"); got != wantStart {
			t.Errorf("node %d finish hits = %d, want %d", v, got, wantStart)
		}
	}
}

// TestForgedTagCanLoopForever documents an honest negative result the
// paper does not discuss: SmartSouth trusts the packet tag. A forged tag
// that marks two adjacent nodes as "finished" (cur = par pointing at each
// other) makes both bounce the packet back and forth indefinitely — an
// in-band amplification hazard. The simulator's event limit catches it;
// a deployment would need ingress tag validation or a hop limit.
func TestForgedTagCanLoopForever(t *testing.T) {
	g := topo.Line(2)
	net := network.New(g, network.Options{MaxSteps: 5_000})
	c := controller.New(net)
	tr, err := InstallTraversal(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Forge: both endpoints finished, cur=par=1 (their mutual ports),
	// traversal already started.
	pkt := tr.L.NewPacket(EthTraversal)
	pkt.Store(tr.L.Start, 1)
	pkt.Store(tr.L.Par[0], 1)
	pkt.Store(tr.L.Cur[0], 1)
	pkt.Store(tr.L.Par[1], 1)
	pkt.Store(tr.L.Cur[1], 1)
	net.Inject(0, 1, pkt, 0, network.HostInject) // as if arriving from the link
	_, err = net.Run()
	if err == nil {
		t.Fatal("expected the event limit to stop the forged-tag loop")
	}
	if _, ok := err.(network.ErrEventLimit); !ok {
		t.Fatalf("wrong error: %v", err)
	}
}
