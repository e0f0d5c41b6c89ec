// benchtable regenerates the paper's evaluation: Table 2 (out-of-band and
// in-band message complexity of every SmartSouth service) plus the
// numbered claims (tag size, rule space / "few hundred nodes", failover,
// packet-loss false negatives, and the control-load comparison against
// out-of-band baselines). Paper formulas are printed next to measured
// values from the simulator.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"smartsouth"
	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

var (
	sizes    = flag.String("sizes", "20,60,120,240", "comma-separated network sizes")
	topoName = flag.String("topo", "random", "topology family: random|grid|fattree|ba|waxman")
	parallel = flag.Int("parallel", 1, "worker count for the Table 2 sweep; 0 = GOMAXPROCS, >1 also reports the wall-clock speedup vs sequential")
	backend  = flag.String("backend", "of13", "compile backend for the per-size tables: of13 or stateful (the backend matrix always measures both)")
	shards   = flag.Int("shards", 1, "event-loop shard count for every deployment; >1 also prints the shard-count scaling curve")
	timeline = flag.String("timeline", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) of one traced snapshot run — largest -sizes graph, -shards shards — to this path")
)

// deploy builds a deployment with the -backend and -shards flags applied.
func deploy(g *topo.Graph) *smartsouth.Deployment {
	return smartsouth.Deploy(g, smartsouth.WithBackend(*backend), smartsouth.WithShards(*shards))
}

func parseSizes() []int {
	var out []int
	v := 0
	for _, c := range *sizes + "," {
		if c >= '0' && c <= '9' {
			v = v*10 + int(c-'0')
		} else if v > 0 {
			out = append(out, v)
			v = 0
		}
	}
	return out
}

func graph(n int) *topo.Graph {
	switch *topoName {
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return topo.Grid(side, (n+side-1)/side)
	case "fattree":
		k := 2
		for 5*k*k/4 < n {
			k += 2
		}
		g, err := topo.FatTree(k)
		must(err)
		return g
	case "ba":
		return topo.BarabasiAlbert(n, 2, int64(n))
	case "waxman":
		return topo.Waxman(n, 0.4, 0.2, int64(n))
	default:
		return topo.RandomConnected(n, n/2, int64(n))
	}
}

func sweep(g *topo.Graph) int { return 4*g.NumEdges() - 2*g.NumNodes() + 2 }

type row struct {
	service     string
	n, e        int
	outPaper    string
	outMeasured int
	inPaper     string
	inMeasured  int
}

func main() {
	flag.Parse()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	fmt.Fprintf(w, "== Topology family: %s ==\n", *topoName)
	fmt.Fprintln(w, "n\tE\tdegree min/mean/max\tdiameter")
	for _, n := range parseSizes() {
		m := topo.Measure(graph(n))
		fmt.Fprintf(w, "%d\t%d\t%d/%.1f/%d\t%d\n", m.Nodes, m.Edges, m.MinDegree, m.MeanDegree, m.MaxDegree, m.Diameter)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== Table 2: SmartSouth service complexities (paper formula vs measured) ==")
	fmt.Fprintln(w, "service\tn\tE\tout-band paper\tout-band meas.\tin-band paper\tin-band meas.")
	ns := parseSizes()
	rowsBySize := make([][]row, len(ns))
	runTable2 := func(workers int) time.Duration {
		start := time.Now()
		// Each job deploys on its own graph and network; they share no
		// state, which is what lets network.Sweep fan them out.
		must(network.Sweep(len(ns), workers, func(i int) error {
			rowsBySize[i] = measureAll(graph(ns[i]))
			return nil
		}))
		return time.Since(start)
	}
	seqElapsed := runTable2(1)
	var parElapsed time.Duration
	if *parallel != 1 {
		parElapsed = runTable2(*parallel)
	}
	for _, rs := range rowsBySize {
		for _, r := range rs {
			fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\t%s\t%d\n",
				r.service, r.n, r.e, r.outPaper, r.outMeasured, r.inPaper, r.inMeasured)
		}
	}
	w.Flush()
	if *parallel != 1 {
		fmt.Printf("(table 2 sweep: sequential %v, parallel[%d workers] %v, speedup %.2fx)\n",
			seqElapsed.Round(time.Millisecond), *parallel,
			parElapsed.Round(time.Millisecond),
			float64(seqElapsed)/float64(parElapsed))
	}

	metricsTable()
	backendMatrixTable()
	latencyTable()
	tagSizeTable()
	ruleSpaceTable()
	// The failover claims measure OpenFlow fast-failover groups; the
	// stateful lowering replaces groups with state tables and a static
	// port scan, which has no port-liveness sensing to measure.
	if *backend != "stateful" {
		failoverTable()
		midFailureTable()
	} else {
		fmt.Println("\n(failover and mid-failure tables skipped: fast-failover is an of13 group primitive)")
	}
	pktLossTable()
	baselineTable()
	if *shards > 1 {
		shardScalingTable()
	}
	if *timeline != "" {
		writeTimeline(*timeline)
	}
}

// writeTimeline runs one causally-traced snapshot traversal on the
// largest configured graph with the configured shard count and writes
// the resulting span timeline as Chrome trace-event JSON — the artifact
// CI validates and operators drop into Perfetto.
func writeTimeline(path string) {
	sz := parseSizes()
	g := graph(sz[len(sz)-1])
	d := smartsouth.Deploy(g, smartsouth.WithBackend(*backend),
		smartsouth.WithShards(*shards), smartsouth.WithTimeline(1<<14))
	snap, err := d.InstallSnapshot()
	must(err)
	snap.Trigger(0, 0)
	must(d.Run())
	f, err := os.Create(path)
	must(err)
	must(d.WriteTimeline(f))
	must(f.Close())
	spans, cross := 0, 0
	complete := 0
	traces := smartsouth.BuildTraces(d.SpanRecords())
	for _, t := range traces {
		spans += t.Spans
		cross += t.CrossLane
		if t.Complete {
			complete++
		}
	}
	fmt.Printf("\n== Causal timeline: %s n=%d, %d shard(s) -> %s ==\n",
		*topoName, g.NumNodes(), d.Net.Shards(), path)
	fmt.Printf("(%d trace(s), %d complete, %d spans, %d cross-shard edges)\n",
		len(traces), complete, spans, cross)
}

// shardScalingTable prints the shard-count scaling curve: wall-clock of a
// burst of concurrent splitting-snapshot traversals on the largest
// configured graph, for shard counts 1, 2, 4, ... up to -shards. The
// burst always uses the OF13 lowering regardless of -backend: it carries
// the DFS state in the packet tag, so the traversals are mutually
// independent and the burst can actually spread across shard workers.
// Every Table-2 counter is asserted shard-invariant along the way; the
// wall-clock column only shows a speedup when GOMAXPROCS > 1.
func shardScalingTable() {
	sz := parseSizes()
	g := graph(sz[len(sz)-1])
	const triggers = 32
	fmt.Printf("\n== Shard-count scaling curve: %s n=%d, %d concurrent sweeps, GOMAXPROCS=%d ==\n",
		*topoName, g.NumNodes(), triggers, runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "shards\twall-clock\tspeedup vs 1\tin-band msgs\tfragments")
	var base time.Duration
	wantMsgs := -1
	for s := 1; s <= *shards; s *= 2 {
		net := network.New(g, network.Options{Shards: s})
		c := controller.New(net)
		sp, err := core.InstallSnapshotSplit(c, g, 0, 16)
		must(err)
		start := time.Now()
		for t := 0; t < triggers; t++ {
			sp.Trigger((t*37)%g.NumNodes(), network.Time(t)*50)
		}
		must2(net.Run())
		elapsed := time.Since(start)
		msgs := net.InBandCount(core.EthSnapSplit)
		if msgs == 0 || msgs > triggers*(4*g.NumEdges()) {
			log.Fatalf("scaling curve: %d shards used %d in-band msgs, per-sweep bound 4|E|=%d", s, msgs, 4*g.NumEdges())
		}
		if wantMsgs == -1 {
			base, wantMsgs = elapsed, msgs
		} else if msgs != wantMsgs {
			log.Fatalf("scaling curve: %d shards saw %d in-band msgs, single loop %d — shard invariance broken", s, msgs, wantMsgs)
		}
		frags := 0
		for _, pi := range c.Inbox() {
			if pi.Pkt.EthType == core.EthSnapSplit {
				frags++
			}
		}
		fmt.Fprintf(w, "%d\t%v\t%.2fx\t%d\t%d\n",
			s, elapsed.Round(time.Millisecond), float64(base)/float64(elapsed), msgs, frags)
	}
	w.Flush()
	fmt.Println("(in-band counters are asserted shard-invariant; wall-clock speedup requires GOMAXPROCS > 1)")
}

// metricsTable cross-checks Table 2 against the per-service metrics
// registry: snapshot, anycast and critical share ONE Ring(20) deployment,
// and their in-band counts are separated purely by the registry's
// per-EtherType attribution — then compared against the paper's 4E-2n+2
// sweep prediction. Snapshot and critical (non-critical node) must agree
// exactly; worst-case anycast is bounded by the sweep.
func metricsTable() {
	fmt.Println("\n== Table 2 via the metrics registry: one shared Ring(20) deployment ==")
	g := topo.Ring(20)
	pred := sweep(g) // 4E-2n+2 = 42 on Ring(20)

	d := deploy(g)
	snap, err := d.InstallSnapshot()
	must(err)
	golden := topo.GoldenDFS(g, 0, topo.Never, topo.Never)
	last := golden.FirstVisits[len(golden.FirstVisits)-1]
	any, err := d.InstallAnycast(map[uint32][]int{1: {last}})
	must(err)
	cr, err := d.InstallCritical()
	must(err)

	snap.Trigger(0, 0)
	any.Send(0, 1, nil, 0)
	cr.Check(0, 0) // ring: no articulation points, full sweep
	must(d.Run())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "service\tin-band predicted\tin-band measured\tagree\ttrig\tpktins\twallclock (µs)")
	bad := 0
	for _, m := range d.MetricsSnapshot() {
		var want string
		var ok bool
		switch m.Service {
		case "snapshot", "critical":
			want, ok = fmt.Sprintf("4E-2n+2=%d", pred), m.InBandMsgs == pred
		case "anycast":
			want, ok = fmt.Sprintf("<=%d", pred), m.InBandMsgs <= pred && m.InBandMsgs > 0
		default:
			continue
		}
		if !ok {
			bad++
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%d\t%d\t%d\n",
			m.Service, want, m.InBandMsgs, ok, m.TriggerPackets, m.PacketIns, m.WallClock/1000)
	}
	w.Flush()
	if bad > 0 {
		log.Fatalf("metrics cross-check: %d service(s) disagree with the Table 2 prediction", bad)
	}
	fmt.Println("(measured from ServiceMetrics of one deployment; attribution is per EtherType)")
}

// backendMatrixTable prints the two-backend Table 2 extension: every
// service compiled from its one definition by both backends on one
// Ring(20), with the installed rule space (flow entries, groups,
// state-table transitions), the packet tag the lowering needs, the
// in-band message count of one run, and the controller's runtime share
// (packet-ins plus post-install flow-mods). The stateful XFSM lowering
// must strictly shrink the rule space for at least three services, and
// port knocking is the headline: the OF13 row needs the controller for
// every knock, the stateful row none.
func backendMatrixTable() {
	fmt.Println("\n== Table 2 across compile backends: one definition, two lowerings (Ring(20)) ==")
	g := topo.Ring(20)

	type svc struct {
		name    string
		install func(d *smartsouth.Deployment) (run func(d *smartsouth.Deployment), eths []uint16)
	}
	svcs := []svc{
		{"snapshot", func(d *smartsouth.Deployment) (func(d *smartsouth.Deployment), []uint16) {
			s, err := d.InstallSnapshot()
			must(err)
			return func(d *smartsouth.Deployment) {
				s.Trigger(0, 0)
				must(d.Run())
			}, []uint16{core.EthSnapshot}
		}},
		{"anycast", func(d *smartsouth.Deployment) (func(d *smartsouth.Deployment), []uint16) {
			a, err := d.InstallAnycast(map[uint32][]int{1: {10}})
			must(err)
			return func(d *smartsouth.Deployment) {
				a.Send(0, 1, nil, 0)
				must(d.Run())
			}, []uint16{core.EthAnycast}
		}},
		{"critical", func(d *smartsouth.Deployment) (func(d *smartsouth.Deployment), []uint16) {
			cr, err := d.InstallCritical()
			must(err)
			return func(d *smartsouth.Deployment) {
				cr.Check(0, 0)
				must(d.Run())
			}, []uint16{core.EthCritical}
		}},
		{"blackhole-2", func(d *smartsouth.Deployment) (func(d *smartsouth.Deployment), []uint16) {
			b, err := d.InstallBlackholeCounter()
			must(err)
			return func(d *smartsouth.Deployment) {
				b.Detect(0, 0, 0)
				must(d.Run())
			}, []uint16{core.EthBlackhole, core.EthBlackholeChk}
		}},
		{"portknock", func(d *smartsouth.Deployment) (func(d *smartsouth.Deployment), []uint16) {
			pk, err := d.InstallPortKnock(10, []uint32{3, 1, 4})
			must(err)
			return func(d *smartsouth.Deployment) {
				pk.Knock(0, 7, 3, 0)
				pk.Knock(0, 7, 1, 10_000)
				pk.Knock(0, 7, 4, 20_000)
				must(d.Run())
				pk.Process() // OF13 controller assist; no-op under stateful
				pk.SendData(0, 7, []byte("guarded"), d.Net.Sim.Now()+1)
				must(d.Run())
				if !pk.Open(7) {
					log.Fatal("backend matrix: knock sequence did not open the port")
				}
			}, []uint16{core.EthKnock, core.EthGuarded}
		}},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "service\tbackend\tflows\tgroups\tstate entries\ttotal rules\ttag bytes\tin-band msgs\tctl pkt-ins\tlate flow-mods")
	shrunk := 0
	for _, s := range svcs {
		var total [2]int
		for i, be := range []string{"of13", "stateful"} {
			d := smartsouth.Deploy(g, smartsouth.WithBackend(be))
			run, eths := s.install(d)
			modsAfterInstall := d.Ctl.Stats.FlowMods
			run(d)
			inband := 0
			for _, eth := range eths {
				inband += d.Net.InBandCount(eth)
			}
			tag := 0
			for _, p := range d.Programs() {
				if p.TagBytes > tag {
					tag = p.TagBytes
				}
			}
			total[i] = d.FlowEntries() + d.GroupEntries() + d.StateEntries()
			fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				s.name, be, d.FlowEntries(), d.GroupEntries(), d.StateEntries(), total[i],
				tag, inband, d.Ctl.Stats.PacketIns, d.Ctl.Stats.FlowMods-modsAfterInstall)
		}
		if total[1] < total[0] {
			shrunk++
		}
	}
	w.Flush()
	if shrunk < 3 {
		log.Fatalf("backend matrix: stateful shrinks the rule space for only %d service(s), want >= 3", shrunk)
	}
	fmt.Printf("(stateful lowering strictly shrinks the rule space for %d/%d services; in-band counts are backend-invariant)\n", shrunk, len(svcs))
}

// latencyTable reports completion latency (simulated time at 1µs links)
// and mean in-band message size per service — the "size" column of
// Table 2 measured rather than asymptotic.
func latencyTable() {
	fmt.Println("\n== Completion latency and in-band message sizes (1µs links) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "service\tn\tE\tcompletion (µs)\tavg in-band bytes\tlargest report bytes")
	for _, n := range parseSizes() {
		g := graph(n)

		runOne := func(name string, install func(d *smartsouth.Deployment) (trigger func(), eth uint16)) {
			d := deploy(g)
			trigger, eth := install(d)
			trigger()
			must(d.Run())
			msgs := d.Net.InBandCount(eth)
			bytes := d.Net.InBandSize(eth)
			avg := 0
			if msgs > 0 {
				avg = bytes / msgs
			}
			report := 0
			for _, pi := range d.Ctl.Inbox() {
				if pi.Pkt.Size() > report {
					report = pi.Pkt.Size()
				}
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
				name, n, g.NumEdges(), d.Net.Sim.Now()/1000, avg, report)
		}

		runOne("snapshot", func(d *smartsouth.Deployment) (func(), uint16) {
			s, err := d.InstallSnapshot()
			must(err)
			return func() { s.Trigger(0, 0) }, core.EthSnapshot
		})
		runOne("critical", func(d *smartsouth.Deployment) (func(), uint16) {
			c, err := d.InstallCritical()
			must(err)
			return func() { c.Check(0, 0) }, core.EthCritical
		})
		runOne("anycast", func(d *smartsouth.Deployment) (func(), uint16) {
			golden := topo.GoldenDFS(g, 0, topo.Never, topo.Never)
			last := golden.FirstVisits[len(golden.FirstVisits)-1]
			a, err := d.InstallAnycast(map[uint32][]int{1: {last}})
			must(err)
			return func() { a.Send(0, 1, nil, 0) }, core.EthAnycast
		})
	}
	w.Flush()
}

// midFailureTable quantifies the paper's mid-execution-failure limitation
// and the supervisor mitigation: fail a random link at a random moment
// during the sweep; count how often the first attempt dies and how many
// attempts the retry supervisor needs.
func midFailureTable() {
	fmt.Println("\n== Limitation study: link failure DURING the traversal + retry supervisor ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trial\tfailed link\tat (µs)\tfirst attempt\tattempts to success")
	g := topo.Grid(4, 4)
	for trial := 0; trial < 6; trial++ {
		d := deploy(g)
		snap, err := d.InstallSnapshot()
		must(err)
		e := g.Edges()[(trial*5+3)%g.NumEdges()]
		at := smartsouth.Time(trial*13_000 + 4_000)
		must(d.Net.ScheduleLinkDown(e.U, e.V, true, at))
		res, attempts, err := smartsouth.Supervisor{}.SnapshotWithRetry(snap, 0)
		must(err)
		first := "survived"
		if attempts > 1 {
			first = "lost"
		}
		_ = res
		fmt.Fprintf(w, "%d\t%d-%d\t%d\t%s\t%d\n", trial, e.U, e.V, at/1000, first, attempts)
	}
	w.Flush()
	fmt.Println("(the paper assumes no failures during execution; the supervisor retries with fresh packets)")
}

func measureAll(g *topo.Graph) []row {
	n, e := g.NumNodes(), g.NumEdges()
	var rows []row

	// Snapshot.
	{
		d := deploy(g)
		s, err := d.InstallSnapshot()
		must(err)
		s.Trigger(0, 0)
		must(d.Run())
		rows = append(rows, row{"snapshot", n, e,
			"1·O(1)+1·O(E)", d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("4E-2n=%d", sweep(g)), d.Net.InBandCount(core.EthSnapshot)})
	}
	// Anycast (worst case: member is the last first-visited node).
	{
		d := deploy(g)
		golden := topo.GoldenDFS(g, 0, topo.Never, topo.Never)
		last := golden.FirstVisits[len(golden.FirstVisits)-1]
		a, err := d.InstallAnycast(map[uint32][]int{1: {last}})
		must(err)
		a.Send(0, 1, nil, 0)
		must(d.Run())
		rows = append(rows, row{"anycast", n, e,
			"0", d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("<=4E-2n=%d", sweep(g)), d.Net.InBandCount(core.EthAnycast)})
	}
	// Priocast (winner far from the root).
	{
		d := deploy(g)
		golden := topo.GoldenDFS(g, 0, topo.Never, topo.Never)
		last := golden.FirstVisits[len(golden.FirstVisits)-1]
		mid := golden.FirstVisits[len(golden.FirstVisits)/2]
		p, err := d.InstallPriocast(map[uint32][]smartsouth.PrioMember{1: {
			{Node: mid, Prio: 2}, {Node: last, Prio: 9}}})
		must(err)
		p.Send(0, 1, nil, 0)
		must(d.Run())
		rows = append(rows, row{"priocast", n, e,
			"0", d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("<=8E-4n=%d", 2*sweep(g)), d.Net.InBandCount(core.EthPriocast)})
	}
	// Blackhole 1 (TTL binary search) — only while 4E+2 fits the TTL.
	if 4*e+2 <= 255 {
		d := deploy(g)
		b, err := d.InstallBlackholeTTL()
		must(err)
		hole := g.Edges()[e/2]
		must(d.Net.SetBlackhole(hole.U, hole.V, false))
		rep, err := b.Locate(0, 0)
		must(err)
		if rep == nil {
			log.Fatal("blackhole-1 found nothing")
		}
		rows = append(rows, row{"blackhole-1", n, e,
			fmt.Sprintf("2·logE=%d", 2*log2ceil(e)), d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("~8E-4n=%d", 2*sweep(g)), d.Net.InBandCount(core.EthBlackhole)})
	}
	// Blackhole 2 (smart counters).
	{
		d := deploy(g)
		b, err := d.InstallBlackholeCounter()
		must(err)
		hole := g.Edges()[e/2]
		must(d.Net.SetBlackhole(hole.U, hole.V, false))
		b.Detect(0, 0, 0)
		must(d.Run())
		if _, found, done := b.Outcome(); !done || !found {
			log.Fatal("blackhole-2 found nothing")
		}
		rows = append(rows, row{"blackhole-2", n, e,
			"3", d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("~4E=%d", 4*e), d.Net.InBandCount(core.EthBlackhole) + d.Net.InBandCount(core.EthBlackholeChk)})
	}
	// Critical (non-critical node: full sweep).
	{
		d := deploy(g)
		cr, err := d.InstallCritical()
		must(err)
		node := 0
		cuts := topo.ArticulationPoints(g)
		for v := 0; v < n; v++ {
			if !cuts[v] {
				node = v
				break
			}
		}
		cr.Check(node, 0)
		must(d.Run())
		rows = append(rows, row{"critical", n, e,
			"2", d.Ctl.Stats.RuntimeMsgs(),
			fmt.Sprintf("4E-2n=%d", sweep(g)), d.Net.InBandCount(core.EthCritical)})
	}
	return rows
}

func tagSizeTable() {
	fmt.Println("\n== Claim: DFS tag adds O(n log Δ) bits (Table 2 footnote) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\tE\ttag bytes\tbytes/node")
	for _, n := range parseSizes() {
		g := graph(n)
		l := core.NewLayout(g)
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\n", n, g.NumEdges(), l.TagBytes(), float64(l.TagBytes())/float64(n))
	}
	w.Flush()
}

func ruleSpaceTable() {
	fmt.Println("\n== Claim: 32 MB flow-table space supports a few hundred nodes ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\tprograms\tflow entries/sw\tgroups/sw\tbytes/sw\tinstall msgs\tswitches per 32MB")
	for _, n := range parseSizes() {
		g := graph(n)
		d := deploy(g)
		_, err := d.InstallSnapshot()
		must(err)
		_, err = d.InstallCritical()
		must(err)
		_, err = d.InstallBlackholeCounter()
		must(err)
		perSw := float64(d.ConfigBytes()) / float64(n)
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%d\t%.0f\n",
			n, len(d.Programs()), d.FlowEntries()/n, d.GroupEntries()/n, perSw,
			d.Ctl.Stats.InstallMsgs, 32*1024*1024/perSw)
	}
	w.Flush()
	fmt.Println("(three services installed simultaneously: snapshot + critical + blackhole-2;")
	fmt.Println(" sizes are summed over the retained programs, one install message per program per switch)")
}

func failoverTable() {
	fmt.Println("\n== Claim: fast-failover robustness (no controller during failures) ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "failed links\tcompleted\tnodes covered\tin-band msgs")
	g := topo.Grid(6, 6)
	for _, kills := range []int{0, 2, 4, 8, 12} {
		d := deploy(g)
		snap, err := d.InstallSnapshot()
		must(err)
		dead := map[[2]int]bool{}
		for i := 0; i < kills; i++ {
			e := g.Edges()[(i*7)%g.NumEdges()]
			must(d.Net.SetLinkDown(e.U, e.V, true))
			dead[[2]int{e.U, e.V}] = true
		}
		snap.Trigger(0, 0)
		must(d.Run())
		res, err := snap.Collect()
		must(err)
		covered := 0
		if res != nil {
			covered = len(res.Nodes)
		}
		fmt.Fprintf(w, "%d\t%v\t%d/%d\t%d\n", kills, res != nil, covered, g.NumNodes(),
			d.Net.InBandCount(core.EthSnapshot))
	}
	w.Flush()
}

func pktLossTable() {
	fmt.Println("\n== Claim: prime-sized counter pairs vs packet-loss false negatives ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "packets lost\tdetected {7}\tdetected {7,11}\tdetected {7,11,13}")
	primeSets := [][]int{{7}, {7, 11}, {7, 11, 13}}
	for _, k := range []int{3, 7, 11, 14, 21, 49, 77} {
		results := make([]bool, len(primeSets))
		for pi, primes := range primeSets {
			g := topo.Line(3)
			d := deploy(g)
			pl, err := d.InstallPktLoss(primes)
			must(err)
			must(d.Net.SetBlackhole(0, 1, false))
			var at smartsouth.Time
			for i := 0; i < k; i++ {
				pl.SendData(0, 2, at)
				at += 10_000
			}
			must(d.Run())
			must(d.Net.SetLinkDown(0, 1, false))
			pl.Monitor(0, at+1_000_000)
			must(d.Run())
			losses, done := pl.Reports()
			if !done {
				log.Fatal("monitor incomplete")
			}
			results[pi] = len(losses) > 0
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\n", k, results[0], results[1], results[2])
	}
	w.Flush()
	fmt.Println("(false negatives occur exactly when the loss is divisible by every counter modulus)")
}

func baselineTable() {
	fmt.Println("\n== Claim: controller load, in-band services vs out-of-band baselines ==")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "n\tE\tLLDP discovery msgs\tsnapshot msgs\treactive anycast msgs/flow\tin-band anycast msgs/flow\tprobe-blackhole msgs\tsmart-counter msgs")
	for _, n := range parseSizes() {
		g := graph(n)
		e := g.NumEdges()

		net1 := network.New(g, network.Options{})
		c1 := controller.New(net1)
		c1.InstallPuntRules(controller.EthLLDP, 100)
		c1.ResetRuntimeStats()
		c1.DiscoverTopology(0)
		must2(net1.Run())
		lldp := c1.Stats.RuntimeMsgs()

		d := deploy(g)
		snap, err := d.InstallSnapshot()
		must(err)
		snap.Trigger(0, 0)
		must(d.Run())
		snapMsgs := d.Ctl.Stats.RuntimeMsgs()

		net2 := network.New(g, network.Options{})
		c2 := controller.New(net2)
		_, _, ok := c2.ReactiveAnycast(g, 0, []int{n - 1}, 1, 0)
		if !ok {
			log.Fatal("no reactive path")
		}
		must2(net2.Run())
		reactive := c2.Stats.RuntimeMsgs() + c2.Stats.FlowMods

		net3 := network.New(g, network.Options{})
		c3 := controller.New(net3)
		c3.InstallPuntRules(controller.EthProbe, 100)
		c3.ResetRuntimeStats()
		c3.ProbeLinks(0)
		must2(net3.Run())
		probe := c3.Stats.RuntimeMsgs()

		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			n, e, lldp, snapMsgs, reactive, 0, probe, 3)
	}
	w.Flush()
}

func log2ceil(x int) int {
	n := 0
	for v := 1; v < x; v <<= 1 {
		n++
	}
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func must2(_ int, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
