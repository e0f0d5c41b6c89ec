package network

import (
	"testing"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// TestSteadyHopPathZeroAlloc pins the zero-allocation property of the
// steady-state hop path: injection, event scheduling, pipeline execution,
// link crossing and local absorption must all run out of recycled memory
// (the packet freelist, the per-switch scratch context, the reusable
// Result and the event heap's backing array) once warm.
func TestSteadyHopPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; property is checked in non-race runs")
	}
	g := topo.Line(2)
	n := New(g, Options{})
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
	pkt := openflow.NewPacket(0x0900, 4)
	hop := func() {
		n.Inject(0, openflow.PortController, pkt, n.Sim.Now()+1, PacketOut)
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the event heap, the scratch Result slices and the
	// packet freelist to steady state.
	for i := 0; i < 100; i++ {
		hop()
	}
	if avg := testing.AllocsPerRun(200, hop); avg != 0 {
		t.Errorf("steady-state hop path allocates %.1f allocs/op, want 0", avg)
	}
}
