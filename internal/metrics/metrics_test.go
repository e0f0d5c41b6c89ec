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

// hopNet is a 3-ring whose switch 0 forwards everything out of port 1 and
// whose other switches drop: every hop below is one in-band transmission
// of a 25-byte packet at the injection time.
func hopNet() *network.Network {
	nw := network.New(topo.Ring(3), network.Options{})
	nw.Switch(0).AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: 1}}})
	return nw
}

func hop(t *testing.T, nw *network.Network, at network.Time, eth uint16) {
	t.Helper()
	nw.Inject(0, openflow.PortController, openflow.NewPacket(eth, 10), at)
	if _, err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryAttribution(t *testing.T) {
	nw := hopNet()
	r := NewRegistry(nw)
	a := r.Register("snapshot", 0, 1, 0x8802)
	b := r.Register("blackhole", 1, 1, 0x8805, 0x8808)

	// EtherType ownership: first registrant wins.
	r.Register("imposter", 2, 1, 0x8802)
	if m := r.ByEth(0x8802); m == nil || m.Service != a.Service {
		t.Fatal("first EtherType registrant must win")
	}

	r.NotePacketOut(100, 0x8802, 50)
	r.NoteHostInject(200, 0x8805, 60)
	r.NotePacketIn(900, 0x8802, 70)
	hop(t, nw, 150, 0x8802)
	hop(t, nw, 300, 0x8808)
	hop(t, nw, 999, 0xFFFF) // unclaimed: credited to nobody

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d services", len(snap))
	}
	sa, sb := snap[0], snap[1]
	if sa.Service != "snapshot" || sb.Service != "blackhole" {
		t.Fatalf("snapshot order: %s, %s (want by slot)", sa.Service, sb.Service)
	}
	if sa.PacketOuts != 1 || sa.PacketIns != 1 || sa.TriggerPackets != 1 {
		t.Fatalf("snapshot counters: %+v", sa)
	}
	if sa.OutBandMsgs != 2 || sa.OutBandBytes != 120 {
		t.Fatalf("out-band: %d msgs %d bytes", sa.OutBandMsgs, sa.OutBandBytes)
	}
	if sa.InBandMsgs != 1 || sa.InBandBytes != 25 {
		t.Fatalf("in-band: %+v", sa)
	}
	if sa.FirstAt != 100 || sa.LastAt != 900 || sa.WallClock != 800 {
		t.Fatalf("wallclock: first=%d last=%d wall=%d", sa.FirstAt, sa.LastAt, sa.WallClock)
	}
	if sb.HostInjects != 1 || sb.TriggerPackets != 1 || sb.InBandMsgs != 1 {
		t.Fatalf("blackhole counters: %+v", sb)
	}
	_ = b
}

func TestRegistryInstallAttributionBySlot(t *testing.T) {
	r := NewRegistry(hopNet())
	r.Register("chaincast", 0, 2, 0x8809) // spans slots 0 and 1
	r.Register("critical", 2, 1, 0x8806)

	p := openflow.NewProgram("chaincast", 1) // second stage, covered by span
	p.Ensure(0, 2)
	p.AddFlow(0, 11, &openflow.FlowEntry{Cookie: "x"})
	p.AddGroup(0, &openflow.GroupEntry{ID: 1 << 20})
	r.NoteInstall(p)

	snap := r.Snapshot()
	if snap[0].FlowMods != 1 || snap[0].GroupMods != 1 || snap[0].InstallTxns != 1 {
		t.Fatalf("span attribution: %+v", snap[0])
	}
	if snap[1].FlowMods != 0 {
		t.Fatal("critical must not be credited")
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry(hopNet())
	r.Register("snapshot", 0, 1, 0x8802)
	r.NotePacketOut(1, 0x8802, 10)
	js, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []ServiceMetrics
	if err := json.Unmarshal(js, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0].Service != "snapshot" || decoded[0].PacketOuts != 1 {
		t.Fatalf("round trip: %+v", decoded)
	}
}

func TestRegistryReset(t *testing.T) {
	nw := hopNet()
	r := NewRegistry(nw)
	r.Register("snapshot", 0, 1, 0x8802)
	r.NotePacketOut(1, 0x8802, 10)
	hop(t, nw, 2, 0x8802)
	p := openflow.NewProgram("snapshot", 0)
	p.Ensure(0, 2)
	p.AddFlow(0, 1, &openflow.FlowEntry{Cookie: "k"})
	r.NoteInstall(p)
	r.Reset()
	m := r.Snapshot()[0]
	if m.PacketOuts != 0 || m.InBandMsgs != 0 || m.WallClock != 0 {
		t.Fatalf("runtime counters survive reset: %+v", m)
	}
	if m.FlowMods != 1 {
		t.Fatal("install counters must survive reset")
	}
}

// TestInBandJoinFollowsResetAndRelease: in-band counts and their time
// bracket are read from the lanes relative to the last Register/Reset,
// Network.ResetAccounting does not disturb them, and a released service
// keeps what it had while the next registrant of its EtherType starts
// from zero.
func TestInBandJoinFollowsResetAndRelease(t *testing.T) {
	nw := hopNet()
	hop(t, nw, 5_000, 0x8802) // before registration: nobody's
	r := NewRegistry(nw)
	r.Register("first", 0, 1, 0x8802)
	hop(t, nw, 10_000, 0x8802)
	hop(t, nw, 20_000, 0x8802)
	nw.ResetAccounting()
	hop(t, nw, 30_000, 0x8802)
	if m := r.Snapshot()[0]; m.InBandMsgs != 3 || m.InBandBytes != 75 || m.FirstAt != 10_000 || m.LastAt != 30_000 || m.WallClock != 20_000 {
		t.Fatalf("joined: %+v", m)
	}
	if nw.InBandCount(0x8802) != 1 {
		t.Fatalf("ResetAccounting must still clear the network's own view, got %d", nw.InBandCount(0x8802))
	}

	r.Reset()
	if m := r.Snapshot()[0]; m.InBandMsgs != 0 || m.WallClock != 0 || m.FirstAt != 0 {
		t.Fatalf("after reset: %+v", m)
	}
	hop(t, nw, 40_000, 0x8802)
	if m := r.Snapshot()[0]; m.InBandMsgs != 1 || m.FirstAt != 40_000 || m.LastAt != 40_000 {
		t.Fatalf("first hop after reset: %+v", m)
	}

	r.Release(0)
	r.Register("second", 1, 1, 0x8802)
	hop(t, nw, 50_000, 0x8802)
	r.NoteHostInject(50_000, 0x8802, 25)
	snap := r.Snapshot()
	if a := snap[0]; !a.Uninstalled || a.InBandMsgs != 1 || a.LastAt != 40_000 || a.HostInjects != 0 {
		t.Fatalf("released entry moved: %+v", a)
	}
	if b := snap[1]; b.Uninstalled || len(b.EtherTypes) != 1 || b.InBandMsgs != 1 || b.FirstAt != 50_000 || b.HostInjects != 1 {
		t.Fatalf("next registrant: %+v", b)
	}
}

// TestMeteredControlPlane runs a real snapshot through the decorator and
// checks installs and trigger packets are attributed while the underlying
// controller still sees everything.
func TestMeteredControlPlane(t *testing.T) {
	g := topo.Ring(6)
	nw := network.New(g, network.Options{})
	ctl := controller.New(nw)
	reg := NewRegistry(nw)
	cp := Meter(ctl, reg)

	reg.Register("snapshot", 0, 1, core.EthSnapshot)
	snap, err := core.InstallSnapshot(cp, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if _, err := cp.RunNetwork(); err != nil {
		t.Fatal(err)
	}

	m := reg.Snapshot()[0]
	if m.FlowMods == 0 || m.GroupMods == 0 || m.InstallTxns != g.NumNodes() {
		t.Fatalf("install attribution: %+v", m)
	}
	if m.FlowMods != ctl.Stats.FlowMods || m.GroupMods != ctl.Stats.GroupMods {
		t.Fatalf("decorator and controller disagree: %d/%d vs %d/%d",
			m.FlowMods, m.GroupMods, ctl.Stats.FlowMods, ctl.Stats.GroupMods)
	}
	if m.PacketOuts != 1 || m.TriggerPackets != 1 {
		t.Fatalf("trigger attribution: %+v", m)
	}
	if res, err := snap.Collect(); err != nil || res == nil || len(res.Nodes) != 6 {
		t.Fatalf("service broken under metering: %v %v", res, err)
	}
}
