package metrics

import (
	"encoding/json"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// punted is the EtherType hopNet hands back to the controller.
const punted = 0x8802

// hopNet is a 3-ring under a local controller whose switch 0 forwards
// everything out of port 1: every packet injected at switch 0 below is
// one in-band transmission of a 25-byte packet at the injection time.
// The other switches punt EtherType punted to the controller (a packet-in
// one link delay later) and drop the rest.
func hopNet() (*network.Network, *controller.Controller) {
	nw := network.New(topo.Ring(3), network.Options{})
	nw.Switch(0).AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: 1}}})
	for sw := 1; sw < 3; sw++ {
		nw.Switch(sw).AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchEth(punted),
			Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}})
	}
	return nw, controller.New(nw)
}

func run(t *testing.T, ctl *controller.Controller) {
	t.Helper()
	if _, err := ctl.RunNetwork(); err != nil {
		t.Fatal(err)
	}
}

// hostHop sends one host packet of EtherType eth from switch 0 at time at
// and runs the network: one host inject and one in-band transmission.
func hostHop(t *testing.T, ctl *controller.Controller, at network.Time, eth uint16) {
	t.Helper()
	ctl.InjectHost(0, openflow.NewPacket(eth, 10), at)
	run(t, ctl)
}

// program is a one-switch program at slot with one flow and one group.
func program(slot int) *openflow.Program {
	p := openflow.NewProgram("p", slot)
	p.Ensure(0, 2)
	p.AddFlow(0, 11, &openflow.FlowEntry{Cookie: "x"})
	p.AddGroup(0, &openflow.GroupEntry{ID: uint32(slot+1) << 20})
	return p
}

// TestRegistryAttribution: packet-outs, host injects, packet-ins and
// in-band transmissions are credited by EtherType to the first registrant
// of the type, with bytes and the clock bracket of all of them; nobody is
// credited with an unclaimed type.
func TestRegistryAttribution(t *testing.T) {
	nw, ctl := hopNet()
	r := NewRegistry(nw)
	a := r.Register("snapshot", 0, 1, punted)
	r.Register("blackhole", 1, 1, 0x8805, 0x8808)

	// EtherType ownership: first registrant wins.
	r.Register("imposter", 2, 1, punted)
	if m := r.byEth[punted]; m == nil || m.Service != a.Service {
		t.Fatal("first EtherType registrant must win")
	}

	ctl.PacketOut(0, openflow.PortController, openflow.NewPacket(punted, 10), 100)
	ctl.InjectHost(0, openflow.NewPacket(0x8805, 10), 200)
	ctl.PacketOut(0, openflow.PortController, openflow.NewPacket(0xFFFF, 10), 999) // unclaimed: credited to nobody
	run(t, ctl)

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d services", len(snap))
	}
	sa, sb, si := snap[0], snap[1], snap[2]
	if sa.Service != "snapshot" || sb.Service != "blackhole" {
		t.Fatalf("snapshot order: %s, %s (want by slot)", sa.Service, sb.Service)
	}
	if sa.PacketOuts != 1 || sa.PacketIns != 1 || sa.TriggerPackets != 1 || sa.HostInjects != 0 {
		t.Fatalf("snapshot counters: %+v", sa)
	}
	if sa.OutBandMsgs != 2 || sa.OutBandBytes != 50 {
		t.Fatalf("out-band: %d msgs %d bytes", sa.OutBandMsgs, sa.OutBandBytes)
	}
	if sa.InBandMsgs != 1 || sa.InBandBytes != 25 {
		t.Fatalf("in-band: %+v", sa)
	}
	// Packet-out at 100, one link delay to the packet-in.
	if sa.FirstAt != 100 || sa.LastAt != 1100 || sa.WallClock != 1000 {
		t.Fatalf("wallclock: first=%d last=%d wall=%d", sa.FirstAt, sa.LastAt, sa.WallClock)
	}
	if sb.HostInjects != 1 || sb.TriggerPackets != 1 || sb.InBandMsgs != 1 || sb.OutBandMsgs != 0 || sb.OutBandBytes != 0 {
		t.Fatalf("blackhole counters: %+v", sb)
	}
	if sb.FirstAt != 200 || sb.WallClock != 0 {
		t.Fatalf("blackhole wallclock: first=%d wall=%d", sb.FirstAt, sb.WallClock)
	}
	if len(si.EtherTypes) != 0 || si.TriggerPackets != 0 || si.InBandMsgs != 0 || si.WallClock != 0 {
		t.Fatalf("imposter credited: %+v", si)
	}
}

// TestRegistryInstallAttributionBySlot: install cost is credited to the
// entry whose slot range covers the program's slot — a multi-slot service
// for each of its slots, transient programs included, whether they were
// installed before or after the entry registered.
func TestRegistryInstallAttributionBySlot(t *testing.T) {
	nw, ctl := hopNet()
	r := NewRegistry(nw)
	ctl.InstallProgram(program(0))        // first stage, installed before Register
	r.Register("chaincast", 0, 2, 0x8809) // spans slots 0 and 1
	r.Register("critical", 2, 1, 0x8806)
	ctl.InstallProgram(program(1)) // second stage, covered by span
	reset := program(1)
	reset.Transient = true
	ctl.InstallProgram(reset)

	snap := r.Snapshot()
	if snap[0].FlowMods != 3 || snap[0].GroupMods != 3 || snap[0].InstallTxns != 3 || snap[0].StateMods != 0 {
		t.Fatalf("span attribution: %+v", snap[0])
	}
	if snap[1].FlowMods != 0 || snap[1].InstallTxns != 0 {
		t.Fatal("critical must not be credited")
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	nw, ctl := hopNet()
	r := NewRegistry(nw)
	r.Register("snapshot", 0, 1, punted)
	ctl.PacketOut(0, openflow.PortController, openflow.NewPacket(punted, 10), 1)
	run(t, ctl)
	js, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []ServiceMetrics
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Service != "snapshot" || decoded[0].PacketOuts != 1 || decoded[0].PacketIns != 1 {
		t.Fatalf("round trip: %+v", decoded)
	}
}

// TestRegistryReset: Reset restarts every runtime counter, out-of-band and
// in-band alike, and keeps the install counters.
func TestRegistryReset(t *testing.T) {
	nw, ctl := hopNet()
	r := NewRegistry(nw)
	r.Register("snapshot", 0, 1, punted)
	ctl.InstallProgram(program(0))
	ctl.PacketOut(0, openflow.PortController, openflow.NewPacket(punted, 10), 1)
	run(t, ctl)
	if m := r.Snapshot()[0]; m.PacketOuts != 1 || m.PacketIns != 1 || m.InBandMsgs != 1 {
		t.Fatalf("before reset: %+v", m)
	}
	r.Reset()
	m := r.Snapshot()[0]
	if m.PacketOuts != 0 || m.PacketIns != 0 || m.OutBandBytes != 0 || m.InBandMsgs != 0 || m.WallClock != 0 || m.FirstAt != 0 {
		t.Fatalf("runtime counters survive reset: %+v", m)
	}
	if m.FlowMods != 1 || m.InstallTxns != 1 {
		t.Fatal("install counters must survive reset")
	}
}

// TestInBandJoinFollowsResetAndRelease: the runtime counts and their time
// bracket are read from the network relative to the last Register/Reset,
// Network.ResetAccounting does not disturb them, and a released service
// keeps what it had — install cost included — while the next registrant
// of its EtherType starts from zero.
func TestInBandJoinFollowsResetAndRelease(t *testing.T) {
	const eth = 0x8803
	nw, ctl := hopNet()
	hostHop(t, ctl, 5_000, eth) // before registration: nobody's
	r := NewRegistry(nw)
	r.Register("first", 0, 1, eth)
	ctl.InstallProgram(program(0))
	hostHop(t, ctl, 10_000, eth)
	hostHop(t, ctl, 20_000, eth)
	nw.ResetAccounting()
	hostHop(t, ctl, 30_000, eth)
	if m := r.Snapshot()[0]; m.InBandMsgs != 3 || m.InBandBytes != 75 || m.HostInjects != 3 || m.FirstAt != 10_000 || m.LastAt != 30_000 || m.WallClock != 20_000 {
		t.Fatalf("joined: %+v", m)
	}
	if nw.InBandCount(eth) != 1 {
		t.Fatalf("ResetAccounting must still clear the network's own view, got %d", nw.InBandCount(eth))
	}

	r.Reset()
	if m := r.Snapshot()[0]; m.InBandMsgs != 0 || m.HostInjects != 0 || m.WallClock != 0 || m.FirstAt != 0 {
		t.Fatalf("after reset: %+v", m)
	}
	hostHop(t, ctl, 40_000, eth)
	if m := r.Snapshot()[0]; m.InBandMsgs != 1 || m.HostInjects != 1 || m.FirstAt != 40_000 || m.LastAt != 40_000 {
		t.Fatalf("first hop after reset: %+v", m)
	}

	r.Release(0)
	r.Register("second", 1, 1, eth)
	hostHop(t, ctl, 50_000, eth)
	ctl.InstallProgram(program(0)) // a late install into the released slot range
	snap := r.Snapshot()
	if a := snap[0]; !a.Uninstalled || a.InBandMsgs != 1 || a.HostInjects != 1 || a.LastAt != 40_000 || a.FlowMods != 1 {
		t.Fatalf("released entry moved: %+v", a)
	}
	if b := snap[1]; b.Uninstalled || len(b.EtherTypes) != 1 || b.InBandMsgs != 1 || b.FirstAt != 50_000 || b.HostInjects != 1 {
		t.Fatalf("next registrant: %+v", b)
	}

	r.Reset()
	if a := r.Snapshot()[0]; a.InBandMsgs != 0 || a.HostInjects != 0 || a.WallClock != 0 || a.FlowMods != 1 {
		t.Fatalf("released entry after reset: %+v", a)
	}
}

// TestRegistryAgreesWithController runs a real snapshot on a local
// controller, registered after its install as the deployment layer does,
// and checks the registry reads the same install and runtime traffic the
// controller's own Stats counted.
func TestRegistryAgreesWithController(t *testing.T) {
	g := topo.Ring(6)
	nw := network.New(g, network.Options{})
	ctl := controller.New(nw)
	reg := NewRegistry(nw)

	snap, err := core.InstallSnapshot(ctl, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register("snapshot", 0, 1, core.EthSnapshot)
	snap.Trigger(0, 0)
	run(t, ctl)

	m := reg.Snapshot()[0]
	if m.FlowMods == 0 || m.GroupMods == 0 || m.InstallTxns != g.NumNodes() {
		t.Fatalf("install attribution: %+v", m)
	}
	if m.FlowMods != ctl.Stats.FlowMods || m.GroupMods != ctl.Stats.GroupMods || m.InstallTxns != ctl.Stats.InstallMsgs {
		t.Fatalf("registry and controller disagree on installs: %d/%d/%d vs %+v",
			m.FlowMods, m.GroupMods, m.InstallTxns, ctl.Stats)
	}
	if m.PacketOuts != 1 || m.PacketIns != 1 || m.TriggerPackets != 1 {
		t.Fatalf("trigger attribution: %+v", m)
	}
	if m.PacketOuts != ctl.Stats.PacketOuts || m.PacketIns != ctl.Stats.PacketIns || m.OutBandBytes != ctl.Stats.OutBandBytes {
		t.Fatalf("registry and controller disagree at runtime: %d out, %d in, %d bytes vs %+v",
			m.PacketOuts, m.PacketIns, m.OutBandBytes, ctl.Stats)
	}
	if res, err := snap.Collect(); err != nil || res == nil || len(res.Nodes) != 6 {
		t.Fatalf("snapshot broken: %v %v", res, err)
	}
}
