package core

import (
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

func loadmapRig(t *testing.T, g *topo.Graph) (*LoadMap, *network.Network, *controller.Controller) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	lm, err := InstallLoadMap(c, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return lm, net, c
}

func TestLoadMapMatchesGroundTruth(t *testing.T) {
	g := topo.Grid(3, 3)
	lm, net, c := loadmapRig(t, g)

	// A known traffic matrix, small enough not to wrap the counters.
	flows := []struct{ from, to, count int }{
		{0, 8, 5}, {8, 0, 3}, {2, 6, 4}, {3, 5, 2},
	}
	var at network.Time
	for _, f := range flows {
		for i := 0; i < f.count; i++ {
			lm.SendData(f.from, f.to, at)
			at += 50_000
		}
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}

	lm.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	loads, done := lm.Loads()
	if !done {
		t.Fatal("no load report")
	}

	// The inferred map must cover every port, and the summed inferred
	// loads must equal the total number of data-packet link crossings
	// (the simulator's ground truth, minus the monitor's own crossings —
	// each port's first sample is taken before the monitor inflates it).
	totalInferred := 0
	for _, v := range loads {
		totalInferred += v
	}
	totalData := 0
	for _, e := range g.Edges() {
		l := net.LinkBetween(e.U, e.V)
		totalData += l.StatsAB.Delivered + l.StatsBA.Delivered
	}
	// Subtract monitor crossings (EthLoadMap) from the link ground truth:
	monitorCrossings := net.InBandCount(EthLoadMap) // all delivered (no failures)
	if totalInferred != totalData-monitorCrossings {
		t.Errorf("inferred total %d, ground truth data crossings %d",
			totalInferred, totalData-monitorCrossings)
	}
	if len(loads) != 2*g.NumEdges() {
		t.Errorf("sampled %d ports, want %d", len(loads), 2*g.NumEdges())
	}
	if c.Stats.RuntimeMsgs() != 2 {
		t.Errorf("out-band msgs = %d, want 2", c.Stats.RuntimeMsgs())
	}
}

func TestLoadMapIdleNetworkAllZero(t *testing.T) {
	g := topo.Ring(6)
	lm, net, _ := loadmapRig(t, g)
	lm.Monitor(0, 0)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	loads, done := lm.Loads()
	if !done {
		t.Fatal("no report")
	}
	for pl, v := range loads {
		if v != 0 {
			t.Errorf("idle port %v reports load %d", pl, v)
		}
	}
}

func TestLoadMapSpecificPath(t *testing.T) {
	// On a line the route is unambiguous: traffic 0->3 loads exactly the
	// rightward ports.
	g := topo.Line(4)
	lm, net, _ := loadmapRig(t, g)
	var at network.Time
	for i := 0; i < 6; i++ {
		lm.SendData(0, 3, at)
		at += 50_000
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	lm.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	loads, done := lm.Loads()
	if !done {
		t.Fatal("no report")
	}
	for hop := 0; hop < 3; hop++ {
		rx := PortLoad{Node: hop + 1, Port: g.PortTo(hop+1, hop)}
		if loads[rx] != 6 {
			t.Errorf("port %v load = %d, want 6", rx, loads[rx])
		}
		// Reverse direction carried nothing.
		back := PortLoad{Node: hop, Port: g.PortTo(hop, hop+1)}
		if loads[back] != 0 {
			t.Errorf("port %v load = %d, want 0", back, loads[back])
		}
	}
}

func TestLoadMapCodec(t *testing.T) {
	for _, c := range [][3]int{{0, 1, 0}, {511, 7, 31}, {4095, 255, 255}} {
		n, p, v := decLoad(encLoad(c[0], c[1], c[2]))
		if n != c[0] || p != c[1] || v != c[2] {
			t.Errorf("codec %v -> %d %d %d", c, n, p, v)
		}
	}
}
