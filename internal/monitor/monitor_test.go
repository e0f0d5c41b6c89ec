package monitor

import (
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

func rig(t *testing.T, g *topo.Graph, watchdog bool) (*Monitor, *network.Network) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	m, err := New(c, net, 0, 0, watchdog)
	if err != nil {
		t.Fatal(err)
	}
	return m, net
}

func kinds(events []Event) map[EventKind]int {
	out := map[EventKind]int{}
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

func TestMonitorQuietNetworkNoEvents(t *testing.T) {
	g := topo.Grid(3, 4)
	m, _ := rig(t, g, false)
	for i := 0; i < 3; i++ {
		events, err := m.Round()
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 {
			t.Fatalf("round %d: spurious events %v", i, events)
		}
	}
	if topoRes := m.prev; topoRes == nil || len(topoRes.Edges) != g.NumEdges() {
		t.Error("topology view incomplete")
	}
}

func TestMonitorDetectsLinkFailAndRecovery(t *testing.T) {
	g := topo.Ring(8)
	m, net := rig(t, g, false)
	if _, err := m.Round(); err != nil { // baseline
		t.Fatal(err)
	}

	if err := net.SetLinkDown(3, 4, true); err != nil {
		t.Fatal(err)
	}
	events, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	if k := kinds(events); k[LinkLost] != 1 || len(events) != 1 {
		t.Fatalf("events after failure: %v", events)
	}
	if events[0].U != 3 || events[0].V != 4 {
		t.Fatalf("wrong link: %v", events[0])
	}

	if err := net.SetLinkDown(3, 4, false); err != nil {
		t.Fatal(err)
	}
	events, err = m.Round()
	if err != nil {
		t.Fatal(err)
	}
	if k := kinds(events); k[LinkRecovered] != 1 || len(events) != 1 {
		t.Fatalf("events after recovery: %v", events)
	}
}

func TestMonitorDetectsNodeLoss(t *testing.T) {
	// Cutting all links of node 5 makes it vanish from the snapshot.
	g := topo.Grid(3, 3)
	m, net := rig(t, g, false)
	if _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= g.Degree(5); p++ {
		v, _, _ := g.Neighbor(5, p)
		if err := net.SetLinkDown(5, v, true); err != nil {
			t.Fatal(err)
		}
	}
	events, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(events)
	if k[NodeLost] != 1 || k[LinkLost] != g.Degree(5) {
		t.Fatalf("events: %v", events)
	}
}

func TestMonitorWatchdogFindsBlackholeOffSweepPath(t *testing.T) {
	// A one-directional blackhole that the DFS only crosses on the echo
	// path: the link vanishes from the snapshot (its far side is reached
	// another way or not at all) or the sweep survives but shrinks — the
	// watchdog should name the silent failure.
	g := topo.Ring(6)
	m, net := rig(t, g, true)
	if _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetBlackhole(3, 2, false); err != nil { // against sweep direction
		t.Fatal(err)
	}
	events, err := m.Round()
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(events)
	if k[BlackholeFound] != 1 {
		t.Fatalf("watchdog missed the silent failure: %v", events)
	}
	for _, e := range events {
		if e.Kind == BlackholeFound {
			okFwd := e.U == 2 && e.V == 3
			okRev := e.U == 3 && e.V == 2
			if !okFwd && !okRev {
				t.Errorf("blackhole located at %d-%d, want 2-3", e.U, e.V)
			}
		}
	}
}

func TestMonitorWatchdogRescuesSwallowedSweep(t *testing.T) {
	// A forward blackhole right on the sweep path swallows every snapshot
	// retry; the watchdog must still localise it instead of erroring.
	g := topo.Line(5)
	m, net := rig(t, g, true)
	if _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetBlackhole(2, 3, false); err != nil {
		t.Fatal(err)
	}
	events, err := m.Round()
	if err != nil {
		t.Fatalf("round with watchdog should succeed: %v", err)
	}
	if kinds(events)[BlackholeFound] != 1 {
		t.Fatalf("events: %v", events)
	}
}

func TestMonitorWithoutWatchdogFailsOnSwallowedSweep(t *testing.T) {
	g := topo.Line(4)
	m, net := rig(t, g, false)
	if _, err := m.Round(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetBlackhole(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Round(); err == nil {
		t.Fatal("expected the round to fail without a watchdog")
	}
}

// TestMonitorTelemetryAndWatchdogCost pins the paper's message economics
// under the network's telemetry: a quiet round costs exactly 2
// out-of-band messages, and a blackhole round adds exactly the watchdog's
// 3 — all of it visible in the network's own monitor counters.
func TestMonitorTelemetryAndWatchdogCost(t *testing.T) {
	g := topo.Ring(6)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	m, err := New(c, net, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}

	c.ResetRuntimeStats()
	if _, err := m.Round(); err != nil { // baseline
		t.Fatal(err)
	}
	if got := c.Stats.RuntimeMsgs(); got != 2 {
		t.Fatalf("quiet round cost %d out-of-band messages, want 2", got)
	}

	// Silent failure on the sweep's echo path. The watchdog round itself
	// is the paper's 3 out-of-band messages, exactly: 2 packet-outs
	// (dance + delayed checker) and 1 packet-in (the verdict).
	if err := net.SetBlackhole(3, 2, false); err != nil {
		t.Fatal(err)
	}
	c.ResetRuntimeStats()
	var events []Event
	found, err := m.watchdogRound(&events)
	if err != nil {
		t.Fatal(err)
	}
	if !found || kinds(events)[BlackholeFound] != 1 {
		t.Fatalf("watchdog missed the blackhole: %v", events)
	}
	if c.Stats.PacketOuts != 2 || c.Stats.PacketIns != 1 {
		t.Fatalf("watchdog round cost %d packet-outs + %d packet-ins, want the paper's 2+1",
			c.Stats.PacketOuts, c.Stats.PacketIns)
	}
	m.noteEvents(events)

	tel := net.Telemetry()
	if tel.MonitorRounds != 1 {
		t.Errorf("MonitorRounds %d, want 1", tel.MonitorRounds)
	}
	if tel.MonitorWatchdog != 1 {
		t.Errorf("MonitorWatchdog %d, want 1", tel.MonitorWatchdog)
	}
	if tel.MonitorBlackholes != 1 {
		t.Errorf("MonitorBlackholes %d, want 1", tel.MonitorBlackholes)
	}
	if tel.MonitorEvents != int64(len(events)) {
		t.Errorf("MonitorEvents %d, want %d", tel.MonitorEvents, len(events))
	}
}

func TestMonitorControlPlaneCostStaysConstant(t *testing.T) {
	g := topo.RandomConnected(40, 25, 9)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	m, err := New(c, net, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	c.ResetRuntimeStats()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := m.Round(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats.RuntimeMsgs(); got != 2*rounds {
		t.Errorf("out-band msgs = %d over %d rounds, want %d", got, rounds, 2*rounds)
	}
}
