package network

import (
	"fmt"
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// benchLinkCrossing is the shared body of the link-crossing benchmarks:
// one injection, one link crossing, one local delivery per iteration.
func benchLinkCrossing(b *testing.B, opts Options) {
	g := topo.Line(2)
	opts.MaxSteps = 1 << 30
	n := New(g, opts)
	for i := 0; i < 2; i++ {
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 1, Match: openflow.MatchAll().WithInPort(1),
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
			Goto:    openflow.NoGoto, Cookie: "sink",
		})
		n.Switch(i).AddFlow(0, &openflow.FlowEntry{
			Priority: 0, Match: openflow.MatchAll(),
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Goto:    openflow.NoGoto, Cookie: "tx",
		})
	}
	pkt := openflow.NewPacket(1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Inject(0, openflow.PortController, pkt, n.Sim.Now()+1, PacketOut)
		if _, err := n.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkCrossing measures raw simulator throughput. Telemetry is
// off so the number stays comparable to the committed baselines, which
// predate telemetry; BenchmarkLinkCrossingTelemetry measures the same
// loop with the always-on instrumentation.
func BenchmarkLinkCrossing(b *testing.B) {
	benchLinkCrossing(b, Options{NoTelemetry: true})
}

// BenchmarkLinkCrossingTelemetry is BenchmarkLinkCrossing with telemetry
// on. Each iteration is a full Inject+Run of only ~3 events, so the
// per-Run flush (two clock reads, counter and histogram publication,
// FlowTable scan deltas) dominates — this is the worst case for the
// always-on cost, not the steady-state per-event overhead, which
// BenchmarkTelemetryOverhead measures on a realistic traversal.
func BenchmarkLinkCrossingTelemetry(b *testing.B) {
	benchLinkCrossing(b, Options{})
}

// BenchmarkFanoutInjection stresses heap churn and dispatch cost: one
// injection per switch, each locally absorbed.
func BenchmarkFanoutInjection(b *testing.B) {
	for _, n := range []int{50, 200} {
		g := topo.RandomConnected(n, n/2, int64(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net := New(g, Options{})
			for i := 0; i < net.NumSwitches(); i++ {
				net.Switch(i).AddFlow(0, &openflow.FlowEntry{
					Priority: 1, Match: openflow.MatchAll(),
					Actions: []openflow.Action{openflow.Output{Port: openflow.PortSelf}},
					Goto:    openflow.NoGoto, Cookie: "sink",
				})
			}
			pkt := openflow.NewPacket(1, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for sw := 0; sw < net.NumSwitches(); sw++ {
					net.Inject(sw, openflow.PortController, pkt, net.Sim.Now()+1, PacketOut)
				}
				if _, err := net.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
