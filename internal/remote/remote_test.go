package remote

import (
	"fmt"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/monitor"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// The fabric must satisfy the services' control-plane contract.
var _ core.ControlPlane = (*Fabric)(nil)

func fabricRig(t *testing.T, g *topo.Graph) (*Fabric, *network.Network) {
	t.Helper()
	nw := network.New(g, network.Options{})
	f, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, nw
}

// TestSnapshotOverWire runs the full snapshot service with every control
// message crossing real TCP sockets as binary OpenFlow, and checks the
// result is identical to a locally-installed run.
func TestSnapshotOverWire(t *testing.T) {
	g := topo.RandomConnected(10, 7, 9)

	// Local reference.
	refNet := network.New(g, network.Options{})
	refCtl := controller.New(refNet)
	refSnap, err := core.InstallSnapshot(refCtl, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	refSnap.Trigger(0, 0)
	if _, err := refNet.Run(); err != nil {
		t.Fatal(err)
	}
	refRes, err := refSnap.Collect()
	if err != nil || refRes == nil {
		t.Fatal("reference snapshot failed")
	}

	// Remote run.
	f, _ := fabricRig(t, g)
	snap, err := core.InstallSnapshot(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	res, err := snap.Collect()
	if err != nil || res == nil {
		t.Fatalf("remote snapshot failed: %v %v", res, err)
	}
	if len(res.Nodes) != len(refRes.Nodes) || len(res.Edges) != len(refRes.Edges) {
		t.Fatalf("remote snapshot %d/%d, reference %d/%d",
			len(res.Nodes), len(res.Edges), len(refRes.Nodes), len(refRes.Edges))
	}
	for _, e := range refRes.Edges {
		if !res.HasEdge(e.U, e.V) {
			t.Errorf("edge %d-%d missing from remote snapshot", e.U, e.V)
		}
	}
	// The wire stats must show the same runtime message pattern: one
	// packet-out, one packet-in.
	if f.Stats.PacketOuts != 1 || f.Stats.PacketIns != 1 {
		t.Errorf("wire runtime stats: %+v", f.Stats)
	}
	if f.Stats.FlowMods == 0 || f.Stats.GroupMods == 0 {
		t.Error("offline installation not counted")
	}
	if err := asyncErr(f); err != nil {
		t.Fatal(err)
	}
}

// asyncErr returns the first asynchronous fabric error.
func asyncErr(f *Fabric) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.firstErr
}

func TestCriticalOverWire(t *testing.T) {
	g := topo.Line(5)
	f, _ := fabricRig(t, g)
	cr, err := core.InstallCritical(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for node, want := range map[int]bool{0: false, 2: true} {
		f.ClearInbox()
		cr.Check(node, f.Now()+1)
		if _, err := f.RunNetwork(); err != nil {
			t.Fatal(err)
		}
		crit, ok := cr.Verdict()
		if !ok || crit != want {
			t.Errorf("node %d: critical=%v ok=%v, want %v", node, crit, ok, want)
		}
	}
}

func TestAnycastOverWire(t *testing.T) {
	g := topo.Ring(6)
	f, nw := fabricRig(t, g)
	a, err := core.InstallAnycast(f, g, 0, map[uint32][]int{3: {4}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	nw.OnSelf = func(sw int, _ *openflow.Packet) { got = append(got, sw) }
	a.Send(0, 3, []byte("w"), 0)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("deliveries %v", got)
	}
	// In-band service: no runtime wire messages at all.
	if f.Stats.PacketOuts != 0 || f.Stats.PacketIns != 0 {
		t.Errorf("wire runtime stats: %+v", f.Stats)
	}
}

func TestBlackholeCounterOverWire(t *testing.T) {
	g := topo.Grid(3, 3)
	f, nw := fabricRig(t, g)
	bh, err := core.InstallBlackholeCounter(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBlackhole(4, 5, false); err != nil {
		t.Fatal(err)
	}
	// Activation times ride beside the wire messages (matched FIFO per
	// switch), so the standard twice-max-delay guard works unchanged.
	bh.Detect(0, 0, 0)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	rep, found, done := bh.Outcome()
	if !done || !found || rep == nil {
		t.Fatalf("no detection over the wire: %v %v %v", rep, found, done)
	}
	okFwd := rep.Switch == 4 && rep.Peer == 5
	okRev := rep.Switch == 5 && rep.Peer == 4
	if !okFwd && !okRev {
		t.Errorf("located %v, want an endpoint of 4-5", rep)
	}
	if f.Stats.RuntimeMsgs() != 3 {
		t.Errorf("wire runtime msgs = %d, want 3", f.Stats.RuntimeMsgs())
	}
}

// TestBatchedInstallUsesFewerWireMessages installs one service through
// the program path: it must cost a small fraction of the one
// control-channel message per entry an unbatched install would send,
// while the logical rule counts stay one per entry.
func TestBatchedInstallUsesFewerWireMessages(t *testing.T) {
	g := topo.Grid(3, 3)

	f, _ := fabricRig(t, g)
	tr, err := core.InstallTraversal(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	batched := f.Stats.InstallMsgs
	if batched == 0 {
		t.Fatal("batched install sent no messages")
	}
	p := tr.Prog
	if perRule := p.FlowCount() + p.GroupCount(); batched*4 > perRule {
		t.Errorf("batching ineffective: %d batched messages vs %d entries", batched, perRule)
	}
	if f.Stats.FlowMods != p.FlowCount() || f.Stats.GroupMods != p.GroupCount() {
		t.Errorf("logical counts diverge from the program: %d/%d flow/group mods, program holds %d/%d",
			f.Stats.FlowMods, f.Stats.GroupMods, p.FlowCount(), p.GroupCount())
	}
	tr.Trigger(0, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	if !tr.Completed() {
		t.Error("batched-installed traversal did not complete")
	}
}

// TestPortStatusOverWire verifies the controller's liveness view is built
// from OFPT_PORT_STATUS messages, and that a failed link routes the wire-
// installed traversal around it.
func TestPortStatusOverWire(t *testing.T) {
	g := topo.Ring(6)
	f, nw := fabricRig(t, g)
	tr, err := core.InstallTraversal(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := g.PortTo(2, 3)
	if !f.PortLive(2, p) {
		t.Fatal("port should start live")
	}
	// The install is still being applied by the agents: flipping a port
	// before it lands races their writes to the switch.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetLinkDown(2, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitPortStatus(); err != nil {
		t.Fatal(err)
	}
	if f.PortLive(2, p) || f.PortLive(3, g.PortTo(3, 2)) {
		t.Error("port-status messages not reflected in the view")
	}
	tr.Trigger(0, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	if !tr.Completed() {
		t.Error("traversal must survive the failed link")
	}
	// Restore and check the view clears.
	if err := nw.SetLinkDown(2, 3, false); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitPortStatus(); err != nil {
		t.Fatal(err)
	}
	if !f.PortLive(2, p) {
		t.Error("restored port still marked down")
	}
}

// TestGroupStatsOverWire verifies the controller can read smart counters
// out of band through group-stats multipart messages.
func TestGroupStatsOverWire(t *testing.T) {
	g := topo.Line(2)
	f, nw := fabricRig(t, g)
	l := core.NewLayout(g)
	field := l.Alloc("ctr", 3)
	ctr := openflow.NewProgram("smart-counter", 0)
	ctr.Transient = true
	if _, err := core.CompileSmartCounter(ctr, 0, 0, 77, field, 5); err != nil {
		t.Fatal(err)
	}
	f.InstallProgram(ctr)
	// Drive 7 fetch-and-increments through the pipeline locally.
	drive := openflow.NewProgram("drive", 0)
	drive.Ensure(0, g.Degree(0))
	drive.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 1, Match: openflow.MatchAll(),
		Actions: []openflow.Action{openflow.Group{ID: 77}, openflow.Output{Port: openflow.PortSelf}},
		Goto:    openflow.NoGoto, Cookie: "drive",
	})
	f.InstallProgram(drive)
	for i := 0; i < 7; i++ {
		nw.Inject(0, 1, openflow.NewPacket(1, l.TagBytes()), network.Time(i)*1000, network.HostInject)
	}
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	if v := f.GroupCounter(0, 77); v != 7%5 {
		t.Errorf("wire-read counter = %d, want %d", v, 7%5)
	}
}

// TestRemainingServicesOverWire sweeps the rest of the service suite
// through the TCP control plane: priocast, chaincast, snapshot-split,
// packet-loss and load inference.
func TestRemainingServicesOverWire(t *testing.T) {
	g := topo.Grid(3, 3)
	f, nw := fabricRig(t, g)
	var deliveries []int
	nw.OnSelf = func(sw int, _ *openflow.Packet) { deliveries = append(deliveries, sw) }

	prio, err := core.InstallPriocast(f, g, 0, map[uint32][]core.PrioMember{
		1: {{Node: 2, Prio: 3}, {Node: 8, Prio: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	cc, err := core.InstallChaincast(f, g, 1, [][]int{{4}, {6}})
	if err != nil {
		t.Fatal(err)
	}
	split, err := core.InstallSnapshotSplit(f, g, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := core.InstallLoadMap(f, g, 4)
	if err != nil {
		t.Fatal(err)
	}

	prio.Send(0, 1, nil, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	cc.Send(0, nil, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 3 || deliveries[0] != 8 || deliveries[1] != 4 || deliveries[2] != 6 {
		t.Fatalf("deliveries = %v, want [8 4 6]", deliveries)
	}

	split.Trigger(0, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	res, frags, err := split.Collect()
	if err != nil || res == nil || len(res.Edges) != g.NumEdges() || frags < 2 {
		t.Fatalf("split over wire: res=%v frags=%d err=%v", res, frags, err)
	}

	f.ClearInbox()
	lm.SendData(0, 8, f.Now()+1)
	lm.SendData(0, 8, f.Now()+2)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	lm.Monitor(0, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	loads, done := lm.Loads()
	if !done {
		t.Fatal("loadmap incomplete over wire")
	}
	total := 0
	for _, v := range loads {
		total += v
	}
	if total == 0 {
		t.Error("no load inferred over wire")
	}
	if err := asyncErr(f); err != nil {
		t.Fatal(err)
	}
}

// TestFlowStatsOverWireProfile reads rule-hit counters over the wire
// after a traversal: the root's start rule fired exactly once.
func TestFlowStatsOverWireProfile(t *testing.T) {
	g := topo.Ring(5)
	f, _ := fabricRig(t, g)
	tr, err := core.InstallTraversal(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr.Trigger(0, f.Now()+1)
	if _, err := f.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	stats, err := f.clients[0].FlowStats(1) // root's entry table
	if err != nil {
		t.Fatal(err)
	}
	startCookie := openflow.CookieHash(fmt.Sprintf("svc%04x/n%d/start", core.EthTraversal, 0))
	found := false
	for _, s := range stats {
		if s.Cookie == startCookie {
			found = true
			if s.Packets != 1 {
				t.Errorf("start rule hits = %d, want 1", s.Packets)
			}
		}
	}
	if !found {
		t.Fatal("start rule not present in wire stats")
	}
}

// TestMonitorOverWire runs the troubleshooting monitor with the TCP
// control plane.
func TestMonitorOverWire(t *testing.T) {
	g := topo.Ring(6)
	f, nw := fabricRig(t, g)
	m, err := monitor.New(f, nw, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBlackhole(2, 3, false); err != nil {
		t.Fatal(err)
	}
	events, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range events {
		if e.Kind == monitor.BlackholeFound {
			found = true
		}
	}
	if !found {
		t.Fatalf("watchdog over wire missed the hole: %v", events)
	}
}

func TestTTLBlackholeOverWire(t *testing.T) {
	g := topo.Ring(6)
	f, nw := fabricRig(t, g)
	bh, err := core.InstallBlackholeTTL(f, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBlackhole(2, 3, false); err != nil {
		t.Fatal(err)
	}
	rep, err := bh.Locate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.Switch != 2 || rep.Peer != 3 {
		t.Fatalf("located %v, want 2->3", rep)
	}
}
