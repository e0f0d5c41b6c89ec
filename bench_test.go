package smartsouth

// Benchmark harness: one benchmark per row of the paper's Table 2 and per
// numbered claim (see DESIGN.md §5). Each benchmark reports, via
// b.ReportMetric, the measured in-band / out-of-band message counts next
// to the paper's closed-form expectation, so `go test -bench .` regenerates
// the evaluation. cmd/benchtable prints the same data as formatted tables.

import (
	"fmt"
	"testing"
	"time"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

// benchSizes are the network sizes swept by the Table-2 benchmarks; the
// paper's scalability claim is "a few hundred nodes".
var benchSizes = []int{20, 60, 120, 240}

func benchGraph(n int) *topo.Graph { return topo.RandomConnected(n, n/2, int64(n)) }

// fullSweep is the exact cost of one SmartSouth traversal in this model;
// the paper reports the same quantity as 4E-2n (boundary terms elided).
func fullSweep(g *topo.Graph) int { return 4*g.NumEdges() - 2*g.NumNodes() + 2 }

func BenchmarkTable2Snapshot(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			d := Deploy(g)
			snap, err := d.InstallSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			var inband, outband, reportBytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				snap.Trigger(0, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				res, err := snap.Collect()
				if err != nil || res == nil || len(res.Edges) != g.NumEdges() {
					b.Fatal("bad snapshot")
				}
				inband = d.Net.InBandCount(core.EthSnapshot)
				outband = d.Ctl.Stats.RuntimeMsgs()
				for _, pi := range d.Ctl.Inbox() {
					reportBytes = pi.Pkt.Size()
				}
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(fullSweep(g)), "paper-4E-2n")
			b.ReportMetric(float64(outband), "outband-msgs") // paper: 2
			b.ReportMetric(float64(reportBytes), "report-bytes")
		})
	}
}

func BenchmarkTable2Anycast(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			d := Deploy(g)
			member := n - 1
			a, err := d.InstallAnycast(map[uint32][]int{1: {member}})
			if err != nil {
				b.Fatal(err)
			}
			delivered := 0
			d.OnDeliver(func(sw int, _ *Packet) { delivered++ })
			var inband, outband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				before := delivered
				a.Send(0, 1, nil, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if delivered != before+1 {
					b.Fatal("not delivered")
				}
				inband = d.Net.InBandCount(core.EthAnycast)
				outband = d.Ctl.Stats.RuntimeMsgs()
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(fullSweep(g)), "paper-bound-4E-2n")
			b.ReportMetric(float64(outband), "outband-msgs") // paper: 0
		})
	}
}

func BenchmarkTable2Priocast(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			d := Deploy(g)
			members := []PrioMember{{Node: n / 3, Prio: 3}, {Node: n - 1, Prio: 9}, {Node: n / 2, Prio: 5}}
			p, err := d.InstallPriocast(map[uint32][]PrioMember{1: members})
			if err != nil {
				b.Fatal(err)
			}
			delivered := -1
			d.OnDeliver(func(sw int, _ *Packet) { delivered = sw })
			var inband, outband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				p.Send(0, 1, nil, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if delivered != n-1 {
					b.Fatalf("delivered at %d, want the prio-9 member %d", delivered, n-1)
				}
				inband = d.Net.InBandCount(core.EthPriocast)
				outband = d.Ctl.Stats.RuntimeMsgs()
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(2*fullSweep(g)), "paper-bound-8E-4n")
			b.ReportMetric(float64(outband), "outband-msgs") // paper: 0
		})
	}
}

func BenchmarkTable2Blackhole1(b *testing.B) {
	// The 8-bit TTL bounds the searchable sweep length; stay within it.
	for _, n := range []int{10, 20, 30} {
		g := topo.RandomConnected(n, n/4, int64(n))
		if 4*g.NumEdges()+2 > 255 {
			continue
		}
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			hole := g.Edges()[g.NumEdges()/2]
			var inband, outband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := Deploy(g)
				bh, err := d.InstallBlackholeTTL()
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := bh.Locate(0, 0)
				if err != nil || rep == nil {
					b.Fatalf("locate failed: %v %v", rep, err)
				}
				inband = d.Net.InBandCount(core.EthBlackhole)
				outband = d.Ctl.Stats.RuntimeMsgs()
			}
			b.ReportMetric(float64(outband), "outband-msgs")
			b.ReportMetric(float64(2*log2ceil(g.NumEdges())), "paper-2logE")
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(2*fullSweep(g)), "paper-8E-4n")
		})
	}
}

func log2ceil(x int) int {
	n := 0
	for v := 1; v < x; v <<= 1 {
		n++
	}
	return n
}

func BenchmarkTable2Blackhole2(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			hole := g.Edges()[g.NumEdges()/2]
			var inband, outband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := Deploy(g)
				bh, err := d.InstallBlackholeCounter()
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Net.SetBlackhole(hole.U, hole.V, false); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				bh.Detect(0, d.Net.Sim.Now()+1, 0)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if _, found, done := bh.Outcome(); !done || !found {
					b.Fatal("detection failed")
				}
				inband = d.Net.InBandCount(core.EthBlackhole) + d.Net.InBandCount(core.EthBlackholeChk)
				outband = d.Ctl.Stats.RuntimeMsgs()
			}
			b.ReportMetric(float64(outband), "outband-msgs") // paper: 3
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(4*g.NumEdges()), "paper-4E")
		})
	}
}

func BenchmarkTable2Critical(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		// A non-critical node exercises the full sweep (worst case).
		node := -1
		cuts := topo.ArticulationPoints(g)
		for v := 0; v < n; v++ {
			if !cuts[v] {
				node = v
				break
			}
		}
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			d := Deploy(g)
			cr, err := d.InstallCritical()
			if err != nil {
				b.Fatal(err)
			}
			var inband, outband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				cr.Check(node, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if crit, ok := cr.Verdict(); !ok || crit {
					b.Fatal("wrong verdict")
				}
				inband = d.Net.InBandCount(core.EthCritical)
				outband = d.Ctl.Stats.RuntimeMsgs()
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(fullSweep(g)), "paper-4E-2n")
			b.ReportMetric(float64(outband), "outband-msgs") // paper: 2
		})
	}
}

// BenchmarkTagSize quantifies the Table-2 footnote: the DFS tag adds
// O(n log Δ) bits to the packet header.
func BenchmarkTagSize(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				l := core.NewLayout(g)
				bytes = l.TagBytes()
			}
			b.ReportMetric(float64(bytes), "tag-bytes")
			b.ReportMetric(float64(n), "nodes")
		})
	}
}

// BenchmarkPacketLoss exercises claim C1: the monitor sweep with
// three prime counters per port direction.
func BenchmarkPacketLoss(b *testing.B) {
	g := topo.Grid(5, 5)
	b.Run("monitor-sweep", func(b *testing.B) {
		d := Deploy(g)
		pl, err := d.InstallPktLoss(nil)
		if err != nil {
			b.Fatal(err)
		}
		var inband int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Net.ResetAccounting()
			d.Ctl.ResetRuntimeStats()
			d.Ctl.ClearInbox()
			pl.Monitor(0, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				b.Fatal(err)
			}
			if _, done := pl.Reports(); !done {
				b.Fatal("monitor incomplete")
			}
			inband = d.Net.InBandCount(core.EthPktLoss)
		}
		b.ReportMetric(float64(inband), "inband-msgs")
		b.ReportMetric(float64(fullSweep(g)), "paper-4E-2n")
	})
}

// BenchmarkFailover exercises claim C2: traversals complete over degraded
// topologies with zero controller involvement and bounded extra cost.
// Pinned to of13: surviving failures is a fast-failover group property;
// the stateful lowering resolves its port scan at compile time.
func BenchmarkFailover(b *testing.B) {
	g := topo.Grid(6, 6)
	for _, kills := range []int{0, 3, 6, 9} {
		b.Run(fmt.Sprintf("failed-links=%d", kills), func(b *testing.B) {
			d := Deploy(g, WithBackend("of13"))
			tr, err := d.InstallTraversal()
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < kills; i++ {
				e := g.Edges()[i*5%g.NumEdges()]
				if err := d.Net.SetLinkDown(e.U, e.V, true); err != nil {
					b.Fatal(err)
				}
			}
			var inband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				d.Ctl.ClearInbox()
				tr.Trigger(0, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if !tr.Completed() {
					b.Fatal("traversal lost")
				}
				inband = d.Net.InBandCount(core.EthTraversal)
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(0, "outband-msgs-during-failover")
		})
	}
}

// BenchmarkRuleSpace exercises claim C3: flow/group table footprint per
// switch, against the NoviKit 250's 32 MB ("scales to a few hundred
// nodes").
func BenchmarkRuleSpace(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var perSwitch float64
			for i := 0; i < b.N; i++ {
				d := Deploy(g)
				if _, err := d.InstallSnapshot(); err != nil {
					b.Fatal(err)
				}
				if _, err := d.InstallCritical(); err != nil {
					b.Fatal(err)
				}
				if _, err := d.InstallBlackholeCounter(); err != nil {
					b.Fatal(err)
				}
				perSwitch = float64(d.ConfigBytes()) / float64(n)
			}
			b.ReportMetric(perSwitch, "bytes/switch")
			b.ReportMetric(32*1024*1024/perSwitch, "switches-per-32MB")
		})
	}
}

// BenchmarkChaincast exercises extension X1: chained anycast over
// middlebox stages.
func BenchmarkChaincast(b *testing.B) {
	g := benchGraph(60)
	for _, stages := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("stages=%d", stages), func(b *testing.B) {
			chain := make([][]int, stages)
			for s := range chain {
				chain[s] = []int{(s*17 + 23) % g.NumNodes()}
			}
			d := Deploy(g)
			cc, err := d.InstallChaincast(chain)
			if err != nil {
				b.Fatal(err)
			}
			visits := 0
			d.OnDeliver(func(int, *Packet) { visits++ })
			var inband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				before := visits
				cc.Send(0, nil, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				if visits != before+stages {
					b.Fatal("chain incomplete")
				}
				inband = d.Net.InBandCount(core.EthChaincast)
			}
			b.ReportMetric(float64(inband), "inband-msgs")
			b.ReportMetric(float64(stages*fullSweep(g)), "bound-stages-x-sweep")
			b.ReportMetric(0, "outband-msgs")
		})
	}
}

// BenchmarkAblationDegree exercises ablation A1: per-node compiled state
// grows as O(Δ²) with the node degree (star centre).
func BenchmarkAblationDegree(b *testing.B) {
	for _, delta := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			g := topo.Star(delta + 1) // centre has degree delta
			var flows, groups, bytes float64
			for i := 0; i < b.N; i++ {
				d := Deploy(g)
				if _, err := d.InstallTraversal(); err != nil {
					b.Fatal(err)
				}
				sw := d.Net.Switch(0)
				flows = float64(sw.FlowEntryCount())
				groups = float64(sw.GroupCount())
				bytes = float64(sw.ConfigBytes())
			}
			b.ReportMetric(flows, "flows@centre")
			b.ReportMetric(groups, "groups@centre")
			b.ReportMetric(bytes, "bytes@centre")
		})
	}
}

// BenchmarkAblationDance exercises ablation A2: the dance traversal's
// in-band overhead over a plain sweep on a healthy network — the price of
// counting every link in both directions.
func BenchmarkAblationDance(b *testing.B) {
	g := benchGraph(60)
	b.Run("plain-sweep", func(b *testing.B) {
		d := Deploy(g)
		tr, err := d.InstallTraversal()
		if err != nil {
			b.Fatal(err)
		}
		var inband int
		for i := 0; i < b.N; i++ {
			d.Net.ResetAccounting()
			d.Ctl.ClearInbox()
			tr.Trigger(0, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				b.Fatal(err)
			}
			inband = d.Net.InBandCount(core.EthTraversal)
		}
		b.ReportMetric(float64(inband), "inband-msgs")
	})
	b.Run("dance-sweep", func(b *testing.B) {
		var inband int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := Deploy(g)
			bh, err := d.InstallBlackholeCounter()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			bh.Detect(0, d.Net.Sim.Now()+1, 0)
			if err := d.Run(); err != nil {
				b.Fatal(err)
			}
			if _, found, done := bh.Outcome(); !done || found {
				b.Fatal("healthy detection failed")
			}
			inband = d.Net.InBandCount(core.EthBlackhole)
		}
		b.ReportMetric(float64(inband), "inband-msgs-dance-only")
		b.ReportMetric(float64(6*g.NumEdges()-2*g.NumNodes()+2), "bound-6E-2n")
	})
}

// BenchmarkMonitorRound measures the troubleshooting monitor's per-round
// cost against network size: the out-of-band message count must stay
// constant (2) while the in-band sweep grows with E.
func BenchmarkMonitorRound(b *testing.B) {
	for _, n := range benchSizes {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d/E=%d", n, g.NumEdges()), func(b *testing.B) {
			d := Deploy(g)
			m, err := d.InstallMonitor(0, false)
			if err != nil {
				b.Fatal(err)
			}
			var outband, inband int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Net.ResetAccounting()
				d.Ctl.ResetRuntimeStats()
				if _, err := m.Round(); err != nil {
					b.Fatal(err)
				}
				outband = d.Ctl.Stats.RuntimeMsgs()
				inband = d.Net.InBandCount(core.EthSnapshot)
			}
			b.ReportMetric(float64(outband), "outband-msgs/round") // constant 2
			b.ReportMetric(float64(inband), "inband-msgs/round")
		})
	}
}

// BenchmarkSnapshotSplit measures the splitting snapshot: fragments scale
// with E/budget while each fragment stays bounded.
func BenchmarkSnapshotSplit(b *testing.B) {
	g := benchGraph(60)
	for _, budget := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			d := Deploy(g)
			s, err := d.InstallSnapshotSplit(budget)
			if err != nil {
				b.Fatal(err)
			}
			var frags, maxLabels int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Ctl.ResetRuntimeStats()
				d.Ctl.ClearInbox()
				s.Trigger(0, d.Net.Sim.Now()+1)
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
				res, f, err := s.Collect()
				if err != nil || res == nil || len(res.Edges) != g.NumEdges() {
					b.Fatal("bad split snapshot")
				}
				frags = f
				maxLabels = 0
				for _, pi := range d.Ctl.Inbox() {
					if l := len(pi.Pkt.Labels); l > maxLabels {
						maxLabels = l
					}
				}
			}
			b.ReportMetric(float64(frags), "fragments")
			b.ReportMetric(float64(maxLabels), "max-labels/fragment")
			b.ReportMetric(float64(budget+2), "bound")
		})
	}
}

// BenchmarkBaselineControlLoad exercises claim C4: controller load of the
// out-of-band baselines versus the in-band services.
func BenchmarkBaselineControlLoad(b *testing.B) {
	g := benchGraph(60)
	b.Run("lldp-discovery", func(b *testing.B) {
		var msgs int
		for i := 0; i < b.N; i++ {
			net := network.New(g, network.Options{})
			c := controller.New(net)
			c.InstallPuntRules(controller.EthLLDP, 100)
			c.ResetRuntimeStats()
			tc := c.DiscoverTopology(0)
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
			if len(tc.Edges()) != g.NumEdges() {
				b.Fatal("incomplete discovery")
			}
			msgs = c.Stats.RuntimeMsgs()
		}
		b.ReportMetric(float64(msgs), "outband-msgs") // grows as 4E
	})
	b.Run("smartsouth-snapshot", func(b *testing.B) {
		var msgs int
		d := Deploy(g)
		snap, err := d.InstallSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d.Ctl.ResetRuntimeStats()
			snap.Trigger(0, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				b.Fatal(err)
			}
			msgs = d.Ctl.Stats.RuntimeMsgs()
		}
		b.ReportMetric(float64(msgs), "outband-msgs") // constant 2
	})
	b.Run("reactive-anycast", func(b *testing.B) {
		var msgs int
		for i := 0; i < b.N; i++ {
			net := network.New(g, network.Options{})
			c := controller.New(net)
			if _, _, ok := c.ReactiveAnycast(g, 0, []int{g.NumNodes() - 1}, uint32(i), 0); !ok {
				b.Fatal("no path")
			}
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
			msgs = c.Stats.RuntimeMsgs() + c.Stats.FlowMods
		}
		b.ReportMetric(float64(msgs), "ctl-msgs-per-flow") // grows with path length
	})
	b.Run("inband-anycast", func(b *testing.B) {
		d := Deploy(g)
		a, err := d.InstallAnycast(map[uint32][]int{1: {g.NumNodes() - 1}})
		if err != nil {
			b.Fatal(err)
		}
		var msgs int
		for i := 0; i < b.N; i++ {
			d.Ctl.ResetRuntimeStats()
			a.Send(0, 1, nil, d.Net.Sim.Now()+1)
			if err := d.Run(); err != nil {
				b.Fatal(err)
			}
			msgs = d.Ctl.Stats.RuntimeMsgs()
		}
		b.ReportMetric(float64(msgs), "ctl-msgs-per-flow") // 0
	})
}

// BenchmarkTelemetryOverhead measures the cost of the always-on
// instrumentation (per-event counters, latency histograms, flight
// recorder) by running the Table2Snapshot workload with telemetry on
// (the default) and off, plus a "timeline" arm with causal span tracing
// enabled on top of the defaults. The acceptance budget for the "on"
// and "timeline" arms is <=5% over "off"; benchguard and
// docs/OBSERVABILITY.md track the measured number.
//
// The "paired" sub-benchmark is the one to trust for the ratio: it
// alternates one on-iteration with one off-iteration inside a single
// timing loop, so load bursts from a shared machine hit both arms
// equally, and reports on/off directly. The sequential arms time each
// configuration in its own window and are only comparable on a quiet
// machine.
func BenchmarkTelemetryOverhead(b *testing.B) {
	g := benchGraph(60)
	iter := func(b *testing.B, d *Deployment, snap *Snapshot) {
		d.Net.ResetAccounting()
		d.Ctl.ResetRuntimeStats()
		snap.Trigger(0, d.Net.Sim.Now()+1)
		if err := d.Run(); err != nil {
			b.Fatal(err)
		}
		if res, err := snap.Collect(); err != nil || res == nil {
			b.Fatal("bad snapshot")
		}
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"on", nil},
		{"noflight", []Option{WithFlightCap(-1)}},
		{"timeline", []Option{WithTimeline(1 << 14)}},
		{"off", []Option{WithoutTelemetry()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			d := Deploy(g, mode.opts...)
			snap, err := d.InstallSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iter(b, d, snap)
			}
		})
	}
	b.Run("paired", func(b *testing.B) {
		dOn := Deploy(g)
		dNf := Deploy(g, WithFlightCap(-1))
		dTl := Deploy(g, WithTimeline(1<<14))
		dOff := Deploy(g, WithoutTelemetry())
		snapOn, err := dOn.InstallSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		snapNf, err := dNf.InstallSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		snapTl, err := dTl.InstallSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		snapOff, err := dOff.InstallSnapshot()
		if err != nil {
			b.Fatal(err)
		}
		var onNs, nfNs, tlNs, offNs int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			iter(b, dOn, snapOn)
			t1 := time.Now()
			iter(b, dNf, snapNf)
			t2 := time.Now()
			iter(b, dTl, snapTl)
			t3 := time.Now()
			iter(b, dOff, snapOff)
			t4 := time.Now()
			onNs += t1.Sub(t0).Nanoseconds()
			nfNs += t2.Sub(t1).Nanoseconds()
			tlNs += t3.Sub(t2).Nanoseconds()
			offNs += t4.Sub(t3).Nanoseconds()
		}
		b.ReportMetric(float64(onNs)/float64(b.N), "on-ns/op")
		b.ReportMetric(float64(nfNs)/float64(b.N), "noflight-ns/op")
		b.ReportMetric(float64(tlNs)/float64(b.N), "timeline-ns/op")
		b.ReportMetric(float64(offNs)/float64(b.N), "off-ns/op")
		if offNs > 0 {
			b.ReportMetric(float64(onNs)/float64(offNs), "on/off-ratio")
			b.ReportMetric(float64(nfNs)/float64(offNs), "noflight/off-ratio")
			b.ReportMetric(float64(tlNs)/float64(offNs), "timeline/off-ratio")
		}
	})
}
