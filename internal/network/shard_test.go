package network

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

// lineRun pushes a burst of packets rightwards down a line under the
// given shard count and returns a digest of everything the network
// reports: delivery order at the sink, in-band accounting, and the final
// clock. Packets are injected at staggered switches and times so the
// shards genuinely overlap in simulation time.
func lineRun(t *testing.T, nodes, shards, packets int) string {
	t.Helper()
	g := topo.Line(nodes)
	n := New(g, Options{Shards: shards})
	lineForwarding(n)

	var deliveries []string
	n.OnSelf = func(sw int, pkt *openflow.Packet) {
		deliveries = append(deliveries, fmt.Sprintf("%d@%d", sw, n.Sim.Now()))
	}
	for i := 0; i < packets; i++ {
		src := 1 + i%(nodes-2)
		n.Inject(src, 1, openflow.NewPacket(testEth, 2), Time(i)*300, HostInject)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	_, bytes := n.InBand()
	return fmt.Sprintf("deliv=%v msgs=%d bytes=%d total=%d end=%d",
		deliveries, n.InBandCount(testEth), bytes[testEth], n.TotalInBand(), n.Sim.Now())
}

// TestShardedLineMatchesSingle pins the sharded engine's observable
// outputs — delivery sequence, Table-2 in-band accounting, final clock —
// to the classic single loop on a workload whose event order is
// shard-invariant (distinct delivery timestamps).
func TestShardedLineMatchesSingle(t *testing.T) {
	want := lineRun(t, 24, 1, 12)
	for _, shards := range []int{2, 3, 4, 8} {
		if got := lineRun(t, 24, shards, 12); got != want {
			t.Errorf("shards=%d diverged:\n got %s\nwant %s", shards, got, want)
		}
	}
}

// TestShardedRepeatable pins determinism for a fixed shard count: two
// identical sharded runs must agree byte for byte.
func TestShardedRepeatable(t *testing.T) {
	a := lineRun(t, 40, 4, 30)
	b := lineRun(t, 40, 4, 30)
	if a != b {
		t.Errorf("same-config sharded runs diverged:\n%s\n%s", a, b)
	}
}

// TestShardedPacketIn routes controller deliveries from worker lanes
// through the control lane and checks they all arrive, at the same
// simulation times as the single loop.
func TestShardedPacketIn(t *testing.T) {
	run := func(shards int) string {
		g := topo.Line(16)
		n := New(g, Options{Shards: shards})
		// Every switch punts arrivals on port 1 to the controller.
		for i := 1; i < n.NumSwitches(); i++ {
			n.Switch(i).AddFlow(0, &openflow.FlowEntry{Priority: 1,
				Match: openflow.MatchAll().WithInPort(1), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}}, Cookie: "punt"})
		}
		var ins []string
		n.OnPacketIn = func(sw int, pkt *openflow.Packet) {
			ins = append(ins, fmt.Sprintf("%d@%d", sw, n.Sim.Now()))
		}
		for i := 1; i < 16; i++ {
			n.Inject(i, 1, openflow.NewPacket(testEth, 2), Time(i)*10, HostInject)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v", ins)
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d packet-ins %s, want %s", shards, got, want)
		}
	}
}

// TestShardedScheduledLinkDown checks that a control event fencing the
// windows (a scheduled failure mid-run) takes effect at exactly its
// timestamp under any shard count: packets crossing the cut link before
// the failure arrive, later ones drop.
func TestShardedScheduledLinkDown(t *testing.T) {
	run := func(shards int) string {
		g := topo.Line(12)
		n := New(g, Options{Shards: shards})
		lineForwarding(n)
		delivered := 0
		n.OnSelf = func(int, *openflow.Packet) { delivered++ }
		// One packet every 2µs from node 1; the 5-6 link dies at 40µs.
		for i := 0; i < 20; i++ {
			n.Inject(1, 1, openflow.NewPacket(testEth, 2), Time(i)*2000, HostInject)
		}
		if err := n.ScheduleLinkDown(5, 6, true, 40_000); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		l := n.LinkBetween(5, 6)
		return fmt.Sprintf("deliv=%d sent=%d drop=%d end=%d",
			delivered, l.StatsAB.Sent, l.StatsAB.Dropped, n.Sim.Now())
	}
	want := run(1)
	for _, shards := range []int{2, 3, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d: %s, want %s", shards, got, want)
		}
	}
}

// TestShardedLossyLink exercises the per-direction loss rngs across
// shard counts: the loss *sequence* is seeded per direction, so the exact
// drop pattern is identical for every shard count at the same seed.
func TestShardedLossyLink(t *testing.T) {
	run := func(shards int) string {
		g := topo.Line(10)
		n := New(g, Options{Shards: shards, Seed: 11})
		lineForwarding(n)
		if err := n.SetLoss(4, 5, 0.5); err != nil {
			t.Fatal(err)
		}
		delivered := 0
		n.OnSelf = func(int, *openflow.Packet) { delivered++ }
		for i := 0; i < 40; i++ {
			n.Inject(1, 1, openflow.NewPacket(testEth, 2), Time(i)*5000, HostInject)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		l := n.LinkBetween(4, 5)
		return fmt.Sprintf("deliv=%d sent=%d drop=%d", delivered, l.StatsAB.Sent, l.StatsAB.Dropped)
	}
	want := run(1)
	if got := run(4); got != want {
		t.Errorf("shards=4: %s, want %s", got, want)
	}
}

// TestShardedEventLimit surfaces the step budget as ErrEventLimit under
// sharding too (the per-window budgets may overshoot by up to the shard
// count, but the error must still fire).
func TestShardedEventLimit(t *testing.T) {
	g := topo.Line(24)
	n := New(g, Options{Shards: 4, MaxSteps: 10})
	lineForwarding(n)
	for i := 0; i < 8; i++ {
		n.Inject(1+i, 1, openflow.NewPacket(testEth, 2), 0, HostInject)
	}
	_, err := n.Run()
	var lim ErrEventLimit
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
}

// TestStrayProcessOnControlLaneIsProcessed: the control lane of a sharded
// network owns no switches, so arrivals never land on its heap by design —
// but one that does (a stray schedule) runs through the same step as any
// other event instead of being dropped.
func TestStrayProcessOnControlLaneIsProcessed(t *testing.T) {
	g := topo.Line(8)
	n := New(g, Options{Shards: 2})
	lineForwarding(n)
	var got []int
	n.OnSelf = func(sw int, _ *openflow.Packet) { got = append(got, sw) }
	n.ctl.sim.schedule(0, event{kind: evProcess, sw: 1, port: 1, pkt: openflow.NewPacket(testEth, 2).ClonePooled()})
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 7 || n.InBandCount(testEth) != 6 {
		t.Errorf("delivered to %v after %d hops, want [7] after 6", got, n.InBandCount(testEth))
	}
}

// TestShardClamping: shard counts beyond the node count clamp, and 0/1
// keep the classic single loop.
func TestShardClamping(t *testing.T) {
	g := topo.Line(3)
	if n := New(g, Options{Shards: 64}); n.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3 (clamped)", n.Shards())
	}
	for _, s := range []int{0, 1} {
		n := New(g, Options{Shards: s})
		if n.Shards() != 1 || n.multi {
			t.Errorf("Shards=%d: got %d lanes multi=%v, want single loop", s, n.Shards(), n.multi)
		}
	}
}

// TestShardedObserverSerialization registers a hop observer mutating
// unsynchronized state; the network must serialize the fan-out across
// worker lanes (this test is the -race probe for obsMu).
func TestShardedObserverSerialization(t *testing.T) {
	g := topo.Line(32)
	n := New(g, Options{Shards: 8})
	lineForwarding(n)
	hops := 0
	n.ObserveHops(func(Hop, *openflow.Packet, bool) { hops++ })
	for i := 0; i < 16; i++ {
		n.Inject(1+i, 1, openflow.NewPacket(testEth, 2), Time(i)*100, HostInject)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if hops != n.TotalInBand() {
		t.Errorf("observer saw %d hops, accounting says %d", hops, n.TotalInBand())
	}
}

// TestShardedOneProc: with GOMAXPROCS=1 the coordinator and every worker
// lane share one processor, so the spinning barrier only progresses by
// yielding; results must not change.
func TestShardedOneProc(t *testing.T) {
	want := lineRun(t, 24, 1, 12)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, shards := range []int{2, 4} {
		if got := lineRun(t, 24, shards, 12); got != want {
			t.Errorf("GOMAXPROCS=1 shards=%d diverged:\n got %s\nwant %s", shards, got, want)
		}
	}
}

// TestShardedWakesParkedLanes: a slow controller callback keeps the
// coordinator busy long enough for the idle worker lanes to spin out and
// park; the windows after it must wake them, with nothing lost.
func TestShardedWakesParkedLanes(t *testing.T) {
	run := func(shards int, stall time.Duration) string {
		n := New(topo.Line(16), Options{Shards: shards})
		lineForwarding(n)
		var deliveries []string
		n.OnSelf = func(sw int, _ *openflow.Packet) {
			time.Sleep(stall)
			deliveries = append(deliveries, fmt.Sprintf("%d@%d", sw, n.Sim.Now()))
		}
		for i := 0; i < 6; i++ {
			n.Inject(1+i, 1, openflow.NewPacket(testEth, 2), Time(i)*4000, HostInject)
		}
		if _, err := n.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v msgs=%d", deliveries, n.InBandCount(testEth))
	}
	want := run(1, 0)
	if got := run(4, 2*time.Millisecond); got != want {
		t.Errorf("shards=4 with a stalling callback: %s, want %s", got, want)
	}
}

// TestShardedRunLeavesNoGoroutines: a sharded Run stops every worker
// goroutine it started before it returns, on the event-limit error path
// too.
func TestShardedRunLeavesNoGoroutines(t *testing.T) {
	settled := func(want int) int {
		// A goroutine outlives its last store by a few instructions.
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); got != want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		return got
	}
	// The workers an earlier test's sharded Run released may still be
	// exiting: take the baseline once the count has held for 10ms.
	quiescent := func() int {
		n := runtime.NumGoroutine()
		steady := time.Now()
		for deadline := steady.Add(time.Second); time.Now().Before(deadline); {
			runtime.Gosched()
			time.Sleep(time.Millisecond)
			if m := runtime.NumGoroutine(); m != n {
				n, steady = m, time.Now()
			} else if time.Since(steady) >= 10*time.Millisecond {
				break
			}
		}
		return n
	}
	before := quiescent()
	lineRun(t, 24, 4, 12)
	if got := settled(before); got != before {
		t.Errorf("%d goroutines after a sharded Run, %d before", got, before)
	}
	n := New(topo.Line(24), Options{Shards: 4, MaxSteps: 10})
	lineForwarding(n)
	for i := 0; i < 8; i++ {
		n.Inject(1+i, 1, openflow.NewPacket(testEth, 2), 0, HostInject)
	}
	if _, err := n.Run(); !errors.As(err, new(ErrEventLimit)) {
		t.Fatalf("err = %v, want ErrEventLimit", err)
	}
	if got := settled(before); got != before {
		t.Errorf("%d goroutines after an ErrEventLimit Run, %d before", got, before)
	}
}
