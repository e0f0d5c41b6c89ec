package core

import (
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

func pktlossRig(t *testing.T, g *topo.Graph, primes []int) (*PktLoss, *network.Network, *controller.Controller) {
	t.Helper()
	net := network.New(g, network.Options{})
	c := controller.New(net)
	pl, err := InstallPktLoss(c, g, 0, primes)
	if err != nil {
		t.Fatal(err)
	}
	return pl, net, c
}

func TestPktLossDataForwardingAndCounting(t *testing.T) {
	g := topo.Line(4)
	pl, net, _ := pktlossRig(t, g, []int{7})
	got := captureSelf(net)
	for i := 0; i < 3; i++ {
		pl.SendData(0, 3, network.Time(i)*10_000)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 || (*got)[0].sw != 3 {
		t.Fatalf("deliveries: %v", *got)
	}
	// Counters along the path ticked 3 times: node 1's ingress on the
	// port toward 0, and node 0's egress.
	p01 := g.PortTo(0, 1)
	p10 := g.PortTo(1, 0)
	if v := pl.ctl.GroupCounter(0, pl.COut[0][p01-1][0].GroupID); v != 3 {
		t.Errorf("egress counter at 0 = %d, want 3", v)
	}
	if v := pl.ctl.GroupCounter(1, pl.CIn[1][p10-1][0].GroupID); v != 3 {
		t.Errorf("ingress counter at 1 = %d, want 3", v)
	}
}

func TestPktLossHealthyMonitorReportsNothing(t *testing.T) {
	g := topo.Grid(3, 3)
	pl, net, c := pktlossRig(t, g, []int{7, 11})
	// Background traffic in several directions.
	at := network.Time(0)
	for i := 0; i < 8; i++ {
		pl.SendData(i%4, 8-(i%4), at)
		at += 100_000
	}
	pl.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	losses, done := pl.Reports()
	if !done {
		t.Fatal("monitor did not complete")
	}
	if len(losses) != 0 {
		t.Fatalf("false positives: %v", losses)
	}
	// Out-of-band: 1 trigger + 1 completion.
	if c.Stats.RuntimeMsgs() != 2 {
		t.Errorf("out-band msgs = %d, want 2", c.Stats.RuntimeMsgs())
	}
	wantInBand := 4*g.NumEdges() - 2*g.NumNodes() + 2
	if got := net.InBandCount(EthPktLoss); got != wantInBand {
		t.Errorf("monitor in-band = %d, want %d", got, wantInBand)
	}
}

// loseExactly drops exactly k data packets on the directed link u->v by
// opening a blackhole window, then restores the link.
func loseExactly(t *testing.T, pl *PktLoss, net *network.Network, src, dst, u, v, k int, at *network.Time) {
	t.Helper()
	if err := net.SetBlackhole(u, v, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		pl.SendData(src, dst, *at)
		*at += 100_000
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(u, v, false); err != nil { // both directions back up
		t.Fatal(err)
	}
}

func TestPktLossDetectsLoss(t *testing.T) {
	g := topo.Line(4)
	pl, net, _ := pktlossRig(t, g, []int{7, 11})
	at := network.Time(0)
	// 3 good packets, then lose exactly 4 on 1->2, then 2 more good.
	for i := 0; i < 3; i++ {
		pl.SendData(0, 3, at)
		at += 100_000
	}
	loseExactly(t, pl, net, 0, 3, 1, 2, 4, &at)
	for i := 0; i < 2; i++ {
		pl.SendData(0, 3, at)
		at += 100_000
	}
	pl.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	losses, done := pl.Reports()
	if !done {
		t.Fatal("monitor did not complete")
	}
	if len(losses) != 1 {
		t.Fatalf("losses = %v, want exactly the 1->2 direction", losses)
	}
	r := losses[0]
	if r.Switch != 2 || r.Peer != 1 {
		t.Errorf("report %v, want loss entering switch 2 from 1", r)
	}
}

func TestPktLossFalseNegativeAndPrimeRescue(t *testing.T) {
	// Losing exactly 7 packets is invisible to a single mod-7 counter —
	// and caught once an 11-sized counter is added (the paper's distinct
	// prime sizes suggestion).
	run := func(primes []int) int {
		g := topo.Line(3)
		pl, net, _ := pktlossRig(t, g, primes)
		at := network.Time(0)
		loseExactly(t, pl, net, 0, 2, 0, 1, 7, &at)
		pl.Monitor(0, at+1_000_000)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		losses, done := pl.Reports()
		if !done {
			t.Fatal("monitor did not complete")
		}
		return len(losses)
	}
	if n := run([]int{7}); n != 0 {
		t.Errorf("mod-7 counter alone should miss a loss of 7 (false negative), got %d reports", n)
	}
	if n := run([]int{7, 11}); n != 1 {
		t.Errorf("adding a mod-11 counter should catch the loss of 7, got %d reports", n)
	}
}

func TestPktLossReverseDirection(t *testing.T) {
	g := topo.Ring(5)
	pl, net, _ := pktlossRig(t, g, []int{7, 11})
	at := network.Time(0)
	// Lose 2 packets flowing 2 -> 1 (the reverse of the monitor's first
	// sweep direction on this ring); src and dst are adjacent so the
	// shortest path is exactly the lossy link.
	loseExactly(t, pl, net, 2, 1, 2, 1, 2, &at)
	pl.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	losses, done := pl.Reports()
	if !done || len(losses) != 1 {
		t.Fatalf("losses=%v done=%v", losses, done)
	}
	if losses[0].Switch != 1 || losses[0].Peer != 2 {
		t.Errorf("report %v, want loss entering 1 from 2", losses[0])
	}
}

func TestPktLossMultipleLossyLinks(t *testing.T) {
	g := topo.Grid(3, 3)
	pl, net, _ := pktlossRig(t, g, []int{7, 11})
	at := network.Time(0)
	loseExactly(t, pl, net, 1, 2, 1, 2, 3, &at)
	loseExactly(t, pl, net, 7, 8, 7, 8, 2, &at)
	pl.Monitor(0, at+1_000_000)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	losses, done := pl.Reports()
	if !done {
		t.Fatal("monitor did not complete")
	}
	want := map[[2]int]bool{{2, 1}: true, {8, 7}: true} // (switch, peer)
	if len(losses) != 2 {
		t.Fatalf("losses = %v, want 2 links", losses)
	}
	for _, r := range losses {
		if !want[[2]int{r.Switch, r.Peer}] {
			t.Errorf("unexpected report %v", r)
		}
	}
}

func TestPktLossValidation(t *testing.T) {
	g := topo.Line(2)
	net := network.New(g, network.Options{})
	c := controller.New(net)
	if _, err := InstallPktLoss(c, g, 0, []int{1}); err == nil {
		t.Error("modulus 1 accepted")
	}
	if _, err := InstallPktLoss(c, g, 0, []int{3, 5, 7, 11}); err == nil {
		t.Error("4 primes accepted (table block overflow)")
	}
}
