package smartsouth

import (
	"encoding/json"
	"strings"
	"testing"

	"smartsouth/internal/core"
)

func sweepMsgs(g *Graph) int { return 4*g.NumEdges() - 2*g.NumNodes() + 2 }

// TestTraceAndMetricsOnSnapshot is the tentpole end-to-end: one snapshot
// sweep must yield decoded hop-trace events, per-service metrics whose
// in-band count equals the paper's 4E-2n+2, and live rule-hit counters.
func TestTraceAndMetricsOnSnapshot(t *testing.T) {
	g := Grid(3, 3)
	// Pinned: the trace assertions decode of13 DFS tag bits, which the
	// stateful backend keeps in switch state tables instead.
	d := Deploy(g, WithTrace(4096), WithBackend("of13"))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if res, err := snap.Collect(); err != nil || res == nil {
		t.Fatalf("snapshot broken under observability: %v %v", res, err)
	}

	events := d.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	if events[0].Switch != 0 || events[0].Seq != 0 {
		t.Fatalf("first event: %+v, want the trigger at switch 0", events[0])
	}
	for i, e := range events {
		if e.Eth != core.EthSnapshot || e.Service != "snapshot" {
			t.Fatalf("event %d not labeled: eth=%#x svc=%q", i, e.Eth, e.Service)
		}
		if !e.Matched || len(e.Rules) == 0 {
			t.Fatalf("event %d recorded no matched rules: %+v", i, e)
		}
		if e.Rules[0].Cookie != "svc8802/dispatch" {
			t.Fatalf("event %d first rule %q, want the table-0 dispatcher", i, e.Rules[0].Cookie)
		}
		if len(e.Tags) != 3 || e.Tags[0].Name != "start" {
			t.Fatalf("event %d tags not decoded: %+v", i, e.Tags)
		}
	}

	ms := d.MetricsSnapshot()
	if len(ms) != 1 {
		t.Fatalf("metrics services: %d", len(ms))
	}
	m := ms[0]
	if m.Service != "snapshot" || m.Slot != 0 {
		t.Fatalf("metrics identity: %+v", m)
	}
	if m.InBandMsgs != sweepMsgs(g) {
		t.Fatalf("in-band %d, want 4E-2n+2 = %d", m.InBandMsgs, sweepMsgs(g))
	}
	if m.InBandMsgs != d.Net.InBandCount(core.EthSnapshot) {
		t.Fatal("metrics and network accounting disagree")
	}
	if m.TriggerPackets != 1 || m.PacketIns != 1 {
		t.Fatalf("trigger/collect: %+v", m)
	}
	if m.WallClock <= 0 {
		t.Fatalf("wallclock %d, want positive", m.WallClock)
	}
	if m.FlowMods == 0 || m.InstallTxns != g.NumNodes() {
		t.Fatalf("install cost: %+v", m)
	}
	if len(m.RuleHits) == 0 {
		t.Fatal("no rule hits attached")
	}
	hits := 0
	for _, h := range m.RuleHits {
		if h.Cookie == "svc8802/dispatch" && h.Packets > 0 {
			hits++
		}
	}
	if hits != g.NumNodes() {
		t.Fatalf("dispatch rule hit on %d switches, want all %d", hits, g.NumNodes())
	}
	if len(m.GroupHits) == 0 {
		t.Fatal("no group-bucket hits attached")
	}
}

// TestTraceAndMetricsDeterministic runs the same multi-service scenario
// twice under a fixed seed: trace and metrics must be bit-identical.
func TestTraceAndMetricsDeterministic(t *testing.T) {
	run := func() (traceStr string, metricsJS string) {
		g := Grid(3, 3)
		d := Deploy(g, WithSeed(42), WithTrace(4096))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		cr, err := d.InstallCritical()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		cr.Check(4, 1_000_000)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, e := range d.Trace.Events() {
			sb.WriteString(e.String())
			sb.WriteByte('\n')
		}
		js, err := json.MarshalIndent(d.MetricsSnapshot(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), string(js)
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 {
		t.Error("hop trace not deterministic under fixed seed")
	}
	if m1 != m2 {
		t.Error("metrics not deterministic under fixed seed")
	}
	if !strings.Contains(m1, "\"service\": \"critical\"") {
		t.Errorf("metrics JSON missing critical service:\n%s", m1)
	}
}

// TestMetricsSeparateCohabitingServices checks per-EtherType attribution:
// two services on one network must not pollute each other's counters.
func TestMetricsSeparateCohabitingServices(t *testing.T) {
	g := Ring(8)
	d := Deploy(g)
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	cr, err := d.InstallCritical()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	cr.Check(0, 10_000_000)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	ms := d.MetricsSnapshot()
	if len(ms) != 2 {
		t.Fatalf("%d services", len(ms))
	}
	want := sweepMsgs(g)
	for _, m := range ms {
		if m.InBandMsgs != want {
			t.Errorf("%s in-band %d, want %d", m.Service, m.InBandMsgs, want)
		}
		if m.TriggerPackets != 1 {
			t.Errorf("%s triggers %d", m.Service, m.TriggerPackets)
		}
	}
	total := ms[0].InBandMsgs + ms[1].InBandMsgs
	if total != d.Net.TotalInBand() {
		t.Errorf("attributed %d of %d in-band messages", total, d.Net.TotalInBand())
	}
}

// TestHitCountersFollowTraffic reads per-slot hit counters directly.
func TestHitCountersFollowTraffic(t *testing.T) {
	g := Ring(5)
	// Pinned: asserts group-bucket hit counters; the stateful lowering
	// emits no advance groups.
	d := Deploy(g, WithBackend("of13"))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rules, _ := d.HitCounters(0)
	for _, r := range rules {
		if r.Packets != 0 {
			t.Fatalf("pre-traffic hit: %+v", r)
		}
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rules, groups := d.HitCounters(0)
	var hit uint64
	for _, r := range rules {
		hit += r.Packets
	}
	if hit == 0 {
		t.Fatal("no rule hits after a full sweep")
	}
	var ghit uint64
	for _, gh := range groups {
		ghit += gh.Packets
	}
	if ghit == 0 {
		t.Fatal("no group-bucket executions after a full sweep")
	}
}

// TestUninstallDerivesSlotSpanFromPrograms: uninstalling ANY slot of a
// multi-slot service (chaincast) must remove the whole service while a
// neighbouring single-slot service keeps running.
func TestUninstallDerivesSlotSpanFromPrograms(t *testing.T) {
	g := Grid(3, 3)
	d := Deploy(g)
	cc, err := d.InstallChaincast([][]int{{4}, {8}}) // slots 0 and 1
	if err != nil {
		t.Fatal(err)
	}
	any, err := d.InstallAnycast(map[uint32][]int{1: {6}}) // slot 2
	if err != nil {
		t.Fatal(err)
	}
	_ = cc

	d.Uninstall(1) // second chain stage: must take the whole chaincast
	if got := len(d.Programs()); got != 1 {
		t.Fatalf("%d programs retained, want only anycast", got)
	}
	if d.Programs()[0].Service != "anycast" {
		t.Fatalf("survivor is %q", d.Programs()[0].Service)
	}
	for i := 0; i < d.Net.NumSwitches(); i++ {
		sw := d.Net.Switch(i)
		for _, slot := range []int{0, 1} {
			lo, hi := core.SlotTables(slot)
			for tb := lo; tb < hi; tb++ {
				if sw.Table(tb).Len() != 0 {
					t.Fatalf("switch %d table %d not cleared", i, tb)
				}
			}
		}
	}
	delivered := 0
	d.OnDeliver(func(int, *Packet) { delivered++ })
	any.Send(0, 1, nil, d.Net.Sim.Now()+1)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatal("anycast broken by chaincast uninstall")
	}
}

// TestFunctionalOptionsAndStructCompat: functional options reach the
// network and compose, the later one winning. (The Options struct is no
// longer an Option; the name is kept for the test history.)
func TestFunctionalOptionsAndStructCompat(t *testing.T) {
	g := Ring(4)
	run := func(opts ...Option) []byte {
		d := Deploy(g, opts...)
		pl, err := d.InstallPktLoss(nil)
		if err != nil {
			t.Fatal(err)
		}
		// Both of node 0's links are lossy, so every data packet crosses a
		// lossy link whichever way BFS routes it and the seed matters.
		if err := d.Net.SetLoss(0, 1, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := d.Net.SetLoss(3, 0, 0.5); err != nil {
			t.Fatal(err)
		}
		var at Time
		for i := 0; i < 20; i++ {
			pl.SendData(0, 2, at)
			at += 10_000
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		msgs, _ := d.Net.InBand()
		js, err := json.Marshal(msgs)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	seed7 := run(WithSeed(7))
	if later := run(WithSeed(9), WithSeed(7)); string(later) != string(seed7) {
		t.Errorf("WithSeed(9), WithSeed(7) gave %s, WithSeed(7) alone %s", later, seed7)
	}
	if string(run(WithSeed(9))) == string(seed7) {
		t.Skip("seeds 7 and 9 coincide on this workload; loss path untested")
	}
}

// TestWithEventLimit bounds a run via the functional option.
func TestWithEventLimit(t *testing.T) {
	g := Ring(12)
	d := Deploy(g, WithEventLimit(5))
	snap, err := d.InstallSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Trigger(0, 0)
	if err := d.Run(); err == nil {
		t.Fatal("a 5-event budget must not complete a Ring(12) sweep")
	}
}

// TestTraceOffByDefault: without WithTrace there is no recorder and no
// per-switch recording cost. The always-on flight recorder labels its
// records from Result.LastCookie (scalar stores), not Steps, so it does
// not force structured recording on either.
func TestTraceOffByDefault(t *testing.T) {
	d := Deploy(Ring(3))
	if d.Trace != nil || d.Trace.Events() != nil {
		t.Fatal("tracing must be opt-in")
	}
	if d.Net.Switch(0).Record {
		t.Fatal("structured recording enabled without observers")
	}
}
