package openflow_test

import (
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// BenchmarkMaterialize prices the two halves of installing one switch's
// share of a compiled snapshot program on a fresh switch — Materialize,
// then CompileDispatch — on a degree-16 hub (427 flow entries, 289 groups
// listing 2 465 buckets) and on an access node of the 10k-switch ISP
// (degree 2: 14 entries, 9 groups). Materialize copies no rule, so its
// allocs/op is a function of how many tables the program names, not of how
// many rules it holds: the two install arms report the same count, and
// cmd/benchguard gates it.
func BenchmarkMaterialize(b *testing.B) {
	isp, err := topo.ISP(500, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	access := 0
	for v := 0; v < isp.NumNodes(); v++ {
		if isp.Degree(v) < isp.Degree(access) {
			access = v
		}
	}
	for _, arm := range []struct {
		name string
		g    *topo.Graph
		node int
	}{
		{"hub16", topo.Star(17), 0},
		{"isp-access", isp, access},
	} {
		snap, err := core.InstallSnapshot(controller.New(network.New(arm.g, network.Options{})), arm.g, 0)
		if err != nil {
			b.Fatal(err)
		}
		sp := snap.Prog.At(arm.node)
		b.Run(arm.name+"/install", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp.Materialize(openflow.NewSwitch(arm.node, sp.NumPorts))
			}
		})
		b.Run(arm.name+"/compile-dispatch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sw := openflow.NewSwitch(arm.node, sp.NumPorts)
				sp.Materialize(sw)
				b.StartTimer()
				sw.CompileDispatch()
			}
		})
	}
}
