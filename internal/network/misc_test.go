package network

import (
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

func TestLinkModeStrings(t *testing.T) {
	for m, want := range map[LinkMode]string{
		LinkUp: "up", LinkDown: "down", LinkBlackhole: "blackhole", LinkLossy: "lossy",
	} {
		if m.String() != want {
			t.Errorf("%d: %q", m, m.String())
		}
	}
}

func TestLinksAccessorAndErrors(t *testing.T) {
	g := topo.Ring(4)
	n := New(g, Options{})
	if len(n.Links()) != 4 {
		t.Errorf("links = %d", len(n.Links()))
	}
	if err := n.SetLinkDown(0, 2, true); err == nil {
		t.Error("non-adjacent SetLinkDown accepted")
	}
	if err := n.SetBlackhole(0, 2, false); err == nil {
		t.Error("non-adjacent SetBlackhole accepted")
	}
	if err := n.SetLoss(0, 2, 0.5); err == nil {
		t.Error("non-adjacent SetLoss accepted")
	}
	if err := n.ScheduleLinkDown(0, 2, true, 5); err == nil {
		t.Error("non-adjacent ScheduleLinkDown accepted")
	}
	if (ErrEventLimit{Steps: 5}).Error() == "" {
		t.Error("empty error string")
	}
}

func TestScheduledLinkDownFiresAtTime(t *testing.T) {
	g := topo.Line(2)
	n := New(g, Options{})
	if err := n.ScheduleLinkDown(0, 1, true, 500); err != nil {
		t.Fatal(err)
	}
	if !n.Switch(0).PortLive(1) {
		t.Fatal("port must still be up before the event fires")
	}
	// Drive time past the scheduled failure with a no-op injection.
	n.Inject(0, openflow.PortController, openflow.NewPacket(1, 1), 1_000, PacketOut)
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Switch(0).PortLive(1) {
		t.Error("scheduled failure did not fire")
	}
}

func TestReverseBlackholeDirectionSelection(t *testing.T) {
	g := topo.Line(2)
	n := New(g, Options{})
	// SetBlackhole(v, u): the caller names the transmit side; setting it
	// from the B-endpoint must blackhole B->A only.
	if err := n.SetBlackhole(1, 0, false); err != nil {
		t.Fatal(err)
	}
	l := n.LinkBetween(0, 1)
	if l.modeBA != LinkBlackhole || l.modeAB != LinkUp {
		t.Errorf("modes: AB=%v BA=%v", l.modeAB, l.modeBA)
	}
	// Bidirectional from the B side covers both.
	if err := n.SetBlackhole(1, 0, true); err != nil {
		t.Fatal(err)
	}
	if l.modeAB != LinkBlackhole {
		t.Error("bidirectional blackhole missed AB")
	}
}

// TestEdgeCountsPublishedAtFold: packet-outs, host injects and packet-ins
// are counted by EtherType where they cross the data plane's edge, and
// InBandStat shows them once a Run folded them — with or without
// telemetry, on one shard or two.
func TestEdgeCountsPublishedAtFold(t *testing.T) {
	const eth = 0x0901
	for _, opts := range []Options{{}, {NoTelemetry: true}, {Shards: 2}} {
		n := New(topo.Ring(4), opts)
		n.OnPacketIn = func(int, *openflow.Packet) {}
		n.Switch(2).AddFlow(0, &openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(),
			Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}})
		pkt := openflow.NewPacket(eth, 10) // 25 bytes
		n.Inject(2, openflow.PortController, pkt, 5, PacketOut)
		n.Inject(2, openflow.PortController, pkt, 7, HostInject)
		n.InjectActions(2, []openflow.Action{openflow.Output{Port: openflow.PortController}}, pkt, 9)
		if s := n.InBandStat(eth); s.PacketOuts != 0 || s.HostInjects != 0 {
			t.Errorf("%+v: counted before a fold: %+v", opts, s)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		want := InBandStat{PacketOuts: 2, HostInjects: 1, PacketIns: 3, OutBandBytes: 5 * 25, First: 5, Last: 9}
		if s := n.InBandStat(eth); s != want {
			t.Errorf("%+v: InBandStat = %+v, want %+v", opts, s, want)
		}
		if s := n.MarkInBand(eth); s != want {
			t.Errorf("%+v: MarkInBand = %+v, want %+v", opts, s, want)
		}
		if s := n.InBandStat(eth); s.First >= 0 || s.PacketIns != 3 {
			t.Errorf("%+v: after MarkInBand: %+v", opts, s)
		}
	}
}

// TestInstallLedgerBySlot: the ledger sums every recorded program's cost
// over a slot range, transient programs included.
func TestInstallLedgerBySlot(t *testing.T) {
	n := New(topo.Ring(4), Options{})
	for slot, sws := range map[int][]int{1: {0, 1}, 2: {3}} {
		p := openflow.NewProgram("p", slot)
		p.Transient = slot == 2
		for _, sw := range sws {
			p.Ensure(sw, 2)
			p.AddFlow(sw, 11, &openflow.FlowEntry{Cookie: "f"})
			p.AddGroup(sw, &openflow.GroupEntry{ID: 1})
		}
		n.RecordInstall(p)
	}
	if c := n.InstallCost(0, 2); c != (InstallCost{Txns: 2, FlowMods: 2, GroupMods: 2}) {
		t.Errorf("slots [0,2): %+v", c)
	}
	if c := n.InstallCost(1, 2); c != (InstallCost{Txns: 3, FlowMods: 3, GroupMods: 3}) {
		t.Errorf("slots [1,3): %+v", c)
	}
	if c := n.InstallCost(3, 1); c != (InstallCost{}) {
		t.Errorf("empty slot: %+v", c)
	}
}
