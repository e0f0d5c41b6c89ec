package smartsouth

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartsouth/internal/core"
	"smartsouth/internal/dump"
	"smartsouth/internal/openflow"
)

// hopRef is the accounting path this repo used to run next to the lanes'
// own counters — one closure call per hop feeding a second registry — kept
// here as the reference the snapshot-time join must agree with: count,
// bytes and first/last transmission time per EtherType.
type hopRef struct {
	msgs, bytes map[uint16]int
	first, last map[uint16]Time
}

func newHopRef() *hopRef {
	return &hopRef{msgs: map[uint16]int{}, bytes: map[uint16]int{}, first: map[uint16]Time{}, last: map[uint16]Time{}}
}

func (r *hopRef) observe(d *Deployment) {
	d.Net.ObserveHops(func(h Hop, pkt *Packet, _ bool) {
		eth, at := pkt.EthType, d.Net.NowAt(h.From)
		if r.msgs[eth] == 0 {
			r.first[eth] = at
		}
		r.msgs[eth]++
		r.bytes[eth] += pkt.Size()
		r.last[eth] = at
	})
}

// check compares every service's in-band columns with the reference. The
// reference sees only hops, so the time bracket is checked as containment:
// the service's bracket also covers its trigger and collect messages.
func (r *hopRef) check(t *testing.T, when string, ms []ServiceMetrics) {
	t.Helper()
	for _, m := range ms {
		msgs, bytes := 0, 0
		first, last := Time(-1), Time(-1)
		for _, eth := range m.EtherTypes {
			if r.msgs[eth] == 0 {
				continue
			}
			msgs += r.msgs[eth]
			bytes += r.bytes[eth]
			if first < 0 || r.first[eth] < first {
				first = r.first[eth]
			}
			if r.last[eth] > last {
				last = r.last[eth]
			}
		}
		if m.InBandMsgs != msgs || m.InBandBytes != bytes {
			t.Errorf("%s: %s in-band %d msgs / %d bytes, reference observer %d / %d",
				when, m.Service, m.InBandMsgs, m.InBandBytes, msgs, bytes)
		}
		if msgs > 0 && (m.FirstAt > first || m.LastAt < last || m.WallClock != m.LastAt-m.FirstAt) {
			t.Errorf("%s: %s bracket [%d, %d] wall %d does not cover the hops' [%d, %d]",
				when, m.Service, m.FirstAt, m.LastAt, m.WallClock, first, last)
		}
		if msgs == 0 && m.TriggerPackets == 0 && m.WallClock != 0 {
			t.Errorf("%s: idle %s reports wall clock %d", when, m.Service, m.WallClock)
		}
	}
}

// TestMetricsJoinAgreesWithHopObserver: the per-service in-band metrics
// are read from the lanes' counters when a snapshot is taken; a hop
// observer that counts the old way must see the same numbers for the five
// services of the deploy-240 workload, on both backends, and keep agreeing
// across Metrics().Reset() (both restart) and Net.ResetAccounting() (which
// clears the network's own per-phase view and must not reach the services).
func TestMetricsJoinAgreesWithHopObserver(t *testing.T) {
	for _, backend := range []string{"of13", "stateful"} {
		t.Run(backend, func(t *testing.T) {
			g := RandomConnected(60, 30, 3)
			n := g.NumNodes()
			d := Deploy(g, WithBackend(backend))
			ref := newHopRef()
			ref.observe(d)
			snap, err := d.InstallSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			any, err := d.InstallAnycast(map[uint32][]int{1: {n - 1, n / 2}})
			if err != nil {
				t.Fatal(err)
			}
			pc, err := d.InstallPriocast(map[uint32][]PrioMember{1: {{Node: n / 3, Prio: 2}, {Node: n - 2, Prio: 9}}})
			if err != nil {
				t.Fatal(err)
			}
			cr, err := d.InstallCritical()
			if err != nil {
				t.Fatal(err)
			}
			bh, err := d.InstallBlackholeCounter()
			if err != nil {
				t.Fatal(err)
			}
			round := func(root int) {
				t.Helper()
				at := d.Net.Sim.Now() + 1
				snap.Trigger(root, at)
				any.Send(root, 1, nil, at)
				pc.Send(root, 1, nil, at)
				cr.Check(root, at)
				bh.Detect(root, at, 0)
				if err := d.Run(); err != nil {
					t.Fatal(err)
				}
			}

			round(0)
			ms := d.MetricsSnapshot()
			if len(ms) != 5 {
				t.Fatalf("%d services", len(ms))
			}
			for _, m := range ms {
				if m.InBandMsgs == 0 {
					t.Fatalf("%s idle after a full round", m.Service)
				}
			}
			ref.check(t, "first round", ms)

			d.Net.ResetAccounting()
			round(7)
			ref.check(t, "after Net.ResetAccounting", d.MetricsSnapshot())
			if phase, all := d.Net.InBandCount(core.EthSnapshot), ref.msgs[core.EthSnapshot]; phase == 0 || phase >= all {
				t.Errorf("network's per-phase view counts %d snapshot hops of %d: Net.ResetAccounting did not restart it", phase, all)
			}

			d.Metrics().Reset()
			*ref = *newHopRef()
			ref.check(t, "right after Metrics().Reset", d.MetricsSnapshot())
			round(n - 1)
			ref.check(t, "after Metrics().Reset", d.MetricsSnapshot())
		})
	}
}

// TestFacadeAddsNoObservers is the facade twin of the network package's
// TestSteadyHopPathZeroAlloc: a default Deploy registers no hop or exec
// observer — the per-service metrics are a read, not a second writer — and
// a traversal, its trigger and its packet-in counted by the network, runs
// out of recycled memory once warm.
func TestFacadeAddsNoObservers(t *testing.T) {
	g := Ring(12)
	// Pinned: the sweep re-sends one prebuilt trigger packet; under the
	// stateful lowering Trigger would have to reset the switches' DFS
	// state first, and Trigger builds (allocates) its packet.
	d := Deploy(g, WithBackend("of13"))
	tr, err := d.InstallTraversal()
	if err != nil {
		t.Fatal(err)
	}
	if hops, execs := d.Net.Observers(); hops != 0 || execs != 0 {
		t.Fatalf("default Deploy registered %d hop and %d exec observers, want none", hops, execs)
	}
	pkt := tr.L.NewPacket(core.EthTraversal)
	sweep := func() {
		d.CP.PacketOut(0, openflow.PortController, pkt, d.Net.Sim.Now()+1)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		d.Ctl.ClearInbox()
	}
	for i := 0; i < 50; i++ {
		sweep()
	}
	m := d.MetricsSnapshot()[0]
	if m.InBandMsgs != 50*sweepMsgs(g) || m.PacketOuts != 50 || m.PacketIns != 50 {
		t.Fatalf("50 sweeps metered as %d in-band, %d out, %d in", m.InBandMsgs, m.PacketOuts, m.PacketIns)
	}
	if raceEnabled {
		return // race-detector instrumentation allocates
	}
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Errorf("a metered sweep allocates %.1f allocs/op on the steady path, want 0", avg)
	}
}

// TestReinstallAttribution: Uninstall hands the service's EtherTypes back,
// so a second InstallAnycast is credited with its own traffic while the
// first entry stays as it was when it was removed.
func TestReinstallAttribution(t *testing.T) {
	g := Ring(8)
	d := Deploy(g)
	delivered := 0
	d.OnDeliver(func(int, *Packet) { delivered++ })
	send := func(ac *Anycast) {
		t.Helper()
		ac.Send(0, 1, nil, d.Net.Sim.Now()+1)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	first, err := d.InstallAnycast(map[uint32][]int{1: {4}})
	if err != nil {
		t.Fatal(err)
	}
	send(first)
	before := d.MetricsSnapshot()[0]
	d.Uninstall(0)
	second, err := d.InstallAnycast(map[uint32][]int{1: {5}})
	if err != nil {
		t.Fatal(err)
	}
	send(second)
	if delivered != 2 {
		t.Fatalf("%d deliveries, want one per send", delivered)
	}

	ms := d.MetricsSnapshot()
	if len(ms) != 2 {
		t.Fatalf("%d entries, want the uninstalled one kept as history", len(ms))
	}
	a, b := ms[0], ms[1]
	if !a.Uninstalled || a.InBandMsgs != before.InBandMsgs || a.InBandBytes != before.InBandBytes ||
		a.HostInjects != 1 || a.LastAt != before.LastAt {
		t.Errorf("uninstalled entry moved: before %+v\nafter %+v", before, a)
	}
	if b.Uninstalled || len(b.EtherTypes) != 1 || b.EtherTypes[0] != core.EthAnycast || b.HostInjects != 1 {
		t.Errorf("second install not credited: %+v", b)
	}
	if total := d.Net.InBandCount(core.EthAnycast); b.InBandMsgs == 0 || a.InBandMsgs+b.InBandMsgs != total {
		t.Errorf("in-band split %d + %d, network counted %d", a.InBandMsgs, b.InBandMsgs, total)
	}
	if b.FirstAt <= a.LastAt {
		t.Errorf("second install's activity starts at %d, inside the first's [%d, %d]", b.FirstAt, a.FirstAt, a.LastAt)
	}
}

// TestShardedObservabilityClocks: per-service times and hop-trace times
// are stamped by the lane that sent or executed, so they do not depend on
// the shard count. (Stamped from Sim.Now(), the parked control lane's
// clock, every one of them read 0 at two shards.)
func TestShardedObservabilityClocks(t *testing.T) {
	run := func(shards int) (ServiceMetrics, []int64) {
		d := Deploy(Ring(20), WithShards(shards), WithTrace(4096))
		ac, err := d.InstallAnycast(map[uint32][]int{1: {10}})
		if err != nil {
			t.Fatal(err)
		}
		ac.Send(0, 1, nil, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		var ats []int64
		for _, e := range d.Trace.Events() {
			ats = append(ats, int64(e.At))
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		return d.MetricsSnapshot()[0], ats
	}
	one, oneAts := run(1)
	two, twoAts := run(2)
	if one.FirstAt != 0 || one.LastAt != 9000 || one.WallClock != 9000 {
		t.Fatalf("one shard: first=%d last=%d wall=%d, want 0/9000/9000", one.FirstAt, one.LastAt, one.WallClock)
	}
	if two.FirstAt != one.FirstAt || two.LastAt != one.LastAt || two.WallClock != one.WallClock {
		t.Errorf("two shards: first=%d last=%d wall=%d, one shard %d/%d/%d",
			two.FirstAt, two.LastAt, two.WallClock, one.FirstAt, one.LastAt, one.WallClock)
	}
	if len(oneAts) == 0 || fmt.Sprint(oneAts) != fmt.Sprint(twoAts) {
		t.Errorf("trace times differ:\n one shard %v\ntwo shards %v", oneAts, twoAts)
	}
}

// TestTraceRingRendersParentGolden: the recorder keeps executions raw and
// renders on read; what it renders for the Ring(20) snapshot sweep is,
// event for event, what the eager recorder of the parent commit stored
// (testdata/ring20_trace.golden is its -trace text, .golden.json its
// events), and a ring too small for the sweep renders exactly the tail.
func TestTraceRingRendersParentGolden(t *testing.T) {
	sweep := func(capacity int) []TraceEvent {
		d := Deploy(Ring(20), WithTrace(capacity), WithBackend("of13"))
		snap, err := d.InstallSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Trigger(0, 0)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return d.Trace.Events()
	}
	wantText, err := os.ReadFile(filepath.Join("testdata", "ring20_trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(filepath.Join("testdata", "ring20_trace.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	full := sweep(4096)
	if got := dump.Trace(full); got != string(wantText) {
		t.Errorf("-trace text differs from the parent's:\n%s", got)
	}
	js, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if string(js)+"\n" != string(wantJSON) {
		t.Error("rendered events differ from the parent's stored events (rules, actions, buckets, tags or ports)")
	}

	const tail = 16
	lines := strings.SplitAfter(string(wantText), "\n")
	lines = lines[:len(lines)-1] // the empty piece after the final newline
	want := strings.Join(lines[len(lines)-tail:], "")
	if got := dump.Trace(sweep(tail)); got != want {
		t.Errorf("wrapped ring of %d renders\n%swant the golden's tail\n%s", tail, got, want)
	}
}
