// smartsouth runs any SmartSouth data-plane service on a generated
// topology and prints what happened, e.g.:
//
//	smartsouth -topo grid -n 16 -service snapshot
//	smartsouth -topo ring -n 10 -service critical -node 3
//	smartsouth -topo random -n 24 -service blackhole-counter -blackhole 3-5
//	smartsouth -topo fattree -n 4 -service anycast -members 12,15 -from 0
//	smartsouth -topo grid -n 16 -service priocast -members 5:2,12:9 -fail 0-1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"smartsouth"
	"smartsouth/internal/dump"
	"smartsouth/internal/verify"
)

var (
	topoName  = flag.String("topo", "grid", "line|ring|star|tree|grid|random|fattree|ba|waxman")
	backend   = flag.String("backend", "of13", "compile backend: of13 (tag-carried state) or stateful (switch state tables)")
	n         = flag.Int("n", 16, "size parameter (nodes; rows*cols for grid; arity for fattree)")
	seed      = flag.Int64("seed", 1, "random topology seed")
	service   = flag.String("service", "snapshot", "traversal|snapshot|anycast|priocast|chaincast|critical|blackhole-ttl|blackhole-counter|pktloss|loadmap|monitor")
	coinstall = flag.String("install", "", "additional services to install (not run) alongside -service, comma-separated; exercises slot sharing for -programs/-verify")
	root      = flag.Int("root", 0, "switch the trigger is injected at")
	node      = flag.Int("node", 0, "node under test (critical)")
	members   = flag.String("members", "", "anycast: m1,m2,…  priocast: m1:prio1,m2:prio2,…")
	from      = flag.Int("from", 0, "source switch for anycast/priocast sends")
	fails     = flag.String("fail", "", "links to fail before the run, e.g. 0-1,4-5")
	blackhole = flag.String("blackhole", "", "plant a silent unidirectional failure, e.g. 3-5")
	chain     = flag.String("chain", "", "chaincast stages, e.g. 2,5/7/1,3 (stage members /-separated)")
	verbose   = flag.Bool("v", false, "print every in-band hop")
	doVerify  = flag.Bool("verify", false, "statically verify the installed configuration")
	dumpSw    = flag.Int("dump", -1, "print the full rule dump of this switch after the run")
	traceCap  = flag.Int("trace", 0, "record a hop trace of the last N pipeline executions and print it (0 = off)")
	metricsTo = flag.String("metrics", "", "write the per-service metrics snapshot as JSON to this file ('-' = stdout)")
	progsTo   = flag.String("programs", "", "write the compiled programs as JSON to this file ('-' = stdout); feed to oflint")
	topoTo    = flag.String("topo-json", "", "write the topology as JSON to this file ('-' = stdout); feed to oflint")
	serveAddr = flag.String("serve", "", "serve this deployment's /metrics (with per-service series), /telemetry, /traces (with -timeline), /debug/vars and /debug/pprof on this address (e.g. :9090) and block after the run")
	telemTo   = flag.String("telemetry", "", "write the process telemetry snapshot as JSON to this file ('-' = stdout)")
	flightTo  = flag.String("flight", "", "write the flight-recorder JSONL to this file ('-' = stdout) after the run; also the dump path on failure")
	timeTo    = flag.String("timeline", "", "enable causal tracing and write the span timeline as Chrome trace-event JSON to this file ('-' = stdout); with -serve it is also live on /traces")
)

func buildTopo() *smartsouth.Graph {
	switch *topoName {
	case "line":
		return smartsouth.Line(*n)
	case "ring":
		return smartsouth.Ring(*n)
	case "star":
		return smartsouth.Star(*n)
	case "tree":
		return smartsouth.Tree(*n, 2)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		return smartsouth.Grid(side, (*n+side-1)/side)
	case "random":
		return smartsouth.RandomConnected(*n, *n/2, *seed)
	case "fattree":
		g, err := smartsouth.FatTree(*n)
		if err != nil {
			log.Fatal(err)
		}
		return g
	case "ba":
		return smartsouth.BarabasiAlbert(*n, 2, *seed)
	case "waxman":
		return smartsouth.Waxman(*n, 0.4, 0.2, *seed)
	}
	log.Fatalf("unknown topology %q", *topoName)
	return nil
}

func parsePair(s string) (int, int) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		log.Fatalf("bad link spec %q (want u-v)", s)
	}
	u, err1 := strconv.Atoi(parts[0])
	v, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil {
		log.Fatalf("bad link spec %q", s)
	}
	return u, v
}

func main() {
	flag.Parse()
	g := buildTopo()
	opts := []smartsouth.Option{smartsouth.WithSeed(*seed), smartsouth.WithBackend(*backend)}
	if *traceCap > 0 {
		opts = append(opts, smartsouth.WithTrace(*traceCap))
	}
	if *timeTo != "" {
		opts = append(opts, smartsouth.WithTimeline(0))
	}
	d := smartsouth.Deploy(g, opts...)
	if *flightTo != "" && *flightTo != "-" {
		d.FlightDumpPath = *flightTo
	}
	if *serveAddr != "" {
		addr, err := d.ServeTelemetry(*serveAddr)
		fatal(err)
		fmt.Printf("telemetry: serving http://%s/metrics (and /telemetry, /debug/vars, /debug/pprof)\n", addr)
	}
	fmt.Printf("topology: %s, %d switches, %d links\n", *topoName, g.NumNodes(), g.NumEdges())
	if *backend != "of13" {
		fmt.Printf("backend: %s\n", d.BackendName())
	}

	if *verbose {
		d.Net.ObserveHops(func(h smartsouth.Hop, pkt *smartsouth.Packet, delivered bool) {
			status := ""
			if !delivered {
				status = "  [LOST]"
			}
			fmt.Printf("  hop %d(p%d) -> %d(p%d)%s\n", h.From, h.FromPort, h.To, h.ToPort, status)
		})
	}

	d.OnDeliver(func(sw int, pkt *smartsouth.Packet) {
		fmt.Printf("delivered at switch %d (payload %q)\n", sw, pkt.Payload)
	})

	run := func() {
		if err := d.Run(); err != nil {
			log.Fatal(err)
		}
	}

	apply := func(spec string, f func(u, v int)) {
		if spec == "" {
			return
		}
		for _, s := range strings.Split(spec, ",") {
			u, v := parsePair(s)
			f(u, v)
		}
	}

	// Co-installed services take the low slots; the -service under test
	// gets the next free one. They are never triggered — they only share
	// the rule space, which is exactly what -programs dumps and the
	// static analysis want to see.
	if *coinstall != "" {
		for _, name := range strings.Split(*coinstall, ",") {
			var err error
			switch name {
			case "traversal":
				_, err = d.InstallTraversal()
			case "snapshot":
				_, err = d.InstallSnapshot()
			case "anycast":
				_, err = d.InstallAnycast(map[uint32][]int{1: {0, g.NumNodes() - 1}})
			case "critical":
				_, err = d.InstallCritical()
			case "blackhole-ttl":
				_, err = d.InstallBlackholeTTL()
			case "blackhole-counter":
				_, err = d.InstallBlackholeCounter()
			default:
				log.Fatalf("unknown -install service %q", name)
			}
			fatal(err)
		}
	}

	switch *service {
	case "traversal":
		tr, err := d.InstallTraversal()
		fatal(err)
		applyFailures(d, apply)
		tr.Trigger(*root, 0)
		run()
		fmt.Printf("traversal completed: %v\n", tr.Completed())

	case "snapshot":
		s, err := d.InstallSnapshot()
		fatal(err)
		applyFailures(d, apply)
		s.Trigger(*root, 0)
		run()
		res, err := s.Collect()
		fatal(err)
		if res == nil {
			fmt.Println("no snapshot returned (trigger lost?)")
			os.Exit(1)
		}
		fmt.Printf("snapshot: %d nodes, %d links\n", len(res.Nodes), len(res.Edges))
		for _, e := range res.Edges {
			fmt.Printf("  %d(p%d) -- %d(p%d)\n", e.U, e.PU, e.V, e.PV)
		}

	case "anycast":
		ms := parseMembers(*members)
		if len(ms) == 0 {
			log.Fatal("anycast needs -members m1,m2,…")
		}
		var plain []int
		for _, m := range ms {
			plain = append(plain, m.Node)
		}
		a, err := d.InstallAnycast(map[uint32][]int{1: plain})
		fatal(err)
		applyFailures(d, apply)
		a.Send(*from, 1, []byte("anycast-payload"), 0)
		run()

	case "priocast":
		ms := parseMembers(*members)
		if len(ms) == 0 {
			log.Fatal("priocast needs -members m1:p1,m2:p2,…")
		}
		p, err := d.InstallPriocast(map[uint32][]smartsouth.PrioMember{1: ms})
		fatal(err)
		applyFailures(d, apply)
		p.Send(*from, 1, []byte("priocast-payload"), 0)
		run()
		if p.FailureReported() {
			fmt.Println("no receiver reachable (failure reported to controller)")
		}

	case "critical":
		cr, err := d.InstallCritical()
		fatal(err)
		applyFailures(d, apply)
		cr.Check(*node, 0)
		run()
		crit, ok := cr.Verdict()
		if !ok {
			log.Fatal("no verdict (trigger lost?)")
		}
		fmt.Printf("switch %d critical: %v\n", *node, crit)

	case "blackhole-ttl":
		b, err := d.InstallBlackholeTTL()
		fatal(err)
		applyFailures(d, apply)
		rep, err := b.Locate(*root, 0)
		fatal(err)
		if rep == nil {
			fmt.Println("no blackhole found")
		} else {
			fmt.Printf("located: %v\n", rep)
		}

	case "blackhole-counter":
		b, err := d.InstallBlackholeCounter()
		fatal(err)
		applyFailures(d, apply)
		b.Detect(*root, 0, 0)
		run()
		rep, found, done := b.Outcome()
		switch {
		case !done:
			fmt.Println("inconclusive (checker swallowed) — rerun after reset")
		case found:
			fmt.Printf("located: %v\n", rep)
		default:
			fmt.Println("no blackhole found")
		}

	case "pktloss":
		pl, err := d.InstallPktLoss(nil)
		fatal(err)
		// Demo workload: traffic between opposite corners, with losses on
		// the planted blackhole (if any).
		applyFailures(d, apply)
		var at smartsouth.Time
		for i := 0; i < 10; i++ {
			pl.SendData(0, g.NumNodes()-1, at)
			at += 100_000
		}
		run()
		// Heal any blackhole so the monitor itself survives.
		if *blackhole != "" {
			u, v := parsePair(*blackhole)
			fatal(d.Net.SetLinkDown(u, v, false))
		}
		pl.Monitor(*root, at+1_000_000)
		run()
		losses, done := pl.Reports()
		fmt.Printf("monitor completed: %v\n", done)
		for _, r := range losses {
			fmt.Printf("loss: packets from %d vanish entering %d (port %d)\n", r.Peer, r.Switch, r.Port)
		}
		if len(losses) == 0 {
			fmt.Println("no loss detected")
		}

	case "chaincast":
		if *chain == "" {
			log.Fatal("chaincast needs -chain s0m1,s0m2/s1m1/…")
		}
		var stages [][]int
		for _, stage := range strings.Split(*chain, "/") {
			var ms []int
			for _, m := range strings.Split(stage, ",") {
				v, err := strconv.Atoi(m)
				if err != nil {
					log.Fatalf("bad chain member %q", m)
				}
				ms = append(ms, v)
			}
			stages = append(stages, ms)
		}
		cc, err := d.InstallChaincast(stages)
		fatal(err)
		applyFailures(d, apply)
		cc.Send(*from, []byte("chain-payload"), 0)
		run()

	case "monitor":
		mon, err := d.InstallMonitor(*root, true)
		fatal(err)
		if _, err := mon.Round(); err != nil {
			log.Fatal(err)
		}
		applyFailures(d, apply)
		events, err := mon.Round()
		fatal(err)
		if len(events) == 0 {
			fmt.Println("monitor: no changes detected")
		}
		for _, e := range events {
			fmt.Println("monitor:", e)
		}

	case "loadmap":
		lm, err := d.InstallLoadMap()
		fatal(err)
		applyFailures(d, apply)
		var at smartsouth.Time
		for i := 0; i < 12; i++ {
			lm.SendData(i%g.NumNodes(), (i*3+1)%g.NumNodes(), at)
			at += 100_000
		}
		run()
		lm.Monitor(*root, at+1_000_000)
		run()
		loads, done := lm.Loads()
		fmt.Printf("load map complete: %v\n", done)
		for pl, v := range loads {
			if v > 0 {
				fmt.Printf("  switch %d port %d received %d data packets\n", pl.Node, pl.Port, v)
			}
		}

	default:
		log.Fatalf("unknown service %q", *service)
	}

	if *dumpSw >= 0 && *dumpSw < g.NumNodes() {
		fmt.Print(dump.Switch(d.Net.Switch(*dumpSw)))
	}

	if *doVerify {
		findings := d.Verify()
		for _, f := range findings {
			fmt.Println(f)
		}
		fmt.Printf("verification: %d findings, %d errors\n", len(findings), len(verify.Errors(findings)))
	}

	if *traceCap > 0 {
		events := d.Trace.Events()
		fmt.Printf("\nhop trace (%d executions retained, %d dropped):\n", len(events), d.Trace.Dropped())
		fmt.Print(dump.Trace(events))
	}

	fmt.Printf("\ncontrol plane: %d flow-mods, %d group-mods in %d install messages (offline); %d packet-outs, %d packet-ins (runtime)\n",
		d.Ctl.Stats.FlowMods, d.Ctl.Stats.GroupMods, d.Ctl.Stats.InstallMsgs,
		d.Ctl.Stats.PacketOuts, d.Ctl.Stats.PacketIns)
	fmt.Printf("in-band messages: %d\n", d.Net.TotalInBand())
	fmt.Print("installed programs:\n", dump.ProgramSummary(d.Programs()))
	if n := d.StateEntries(); n > 0 {
		fmt.Printf("installed state: %d flow entries, %d groups, %d state entries, %d bytes total\n",
			d.FlowEntries(), d.GroupEntries(), n, d.ConfigBytes())
	} else {
		fmt.Printf("installed state: %d flow entries, %d groups, %d bytes total\n",
			d.FlowEntries(), d.GroupEntries(), d.ConfigBytes())
	}

	writeOut := func(name, what string, data []byte) {
		if name == "-" {
			fmt.Printf("%s JSON:\n%s\n", what, data)
		} else {
			fatal(os.WriteFile(name, append(data, '\n'), 0o644))
			fmt.Printf("%s JSON written to %s\n", what, name)
		}
	}
	if *progsTo != "" {
		js, err := dump.MarshalPrograms(d.Programs())
		fatal(err)
		writeOut(*progsTo, "programs", js)
	}
	if *topoTo != "" {
		js, err := json.Marshal(g)
		fatal(err)
		writeOut(*topoTo, "topology", js)
	}

	if *metricsTo != "" {
		ms := d.MetricsSnapshot()
		fmt.Print("\nper-service metrics:\n", dump.Metrics(ms))
		js, err := json.MarshalIndent(ms, "", "  ")
		fatal(err)
		if *metricsTo == "-" {
			fmt.Printf("metrics JSON:\n%s\n", js)
		} else {
			fatal(os.WriteFile(*metricsTo, append(js, '\n'), 0o644))
			fmt.Printf("metrics JSON written to %s\n", *metricsTo)
		}
	}

	if *telemTo != "" {
		js, err := json.MarshalIndent(smartsouth.TelemetrySnapshot(), "", "  ")
		fatal(err)
		writeOut(*telemTo, "telemetry", js)
	}
	if *flightTo != "" {
		if *flightTo == "-" {
			fmt.Println("flight recorder JSONL:")
			fatal(d.DumpFlight(os.Stdout))
		} else {
			f, err := os.Create(*flightTo)
			fatal(err)
			fatal(d.DumpFlight(f))
			fatal(f.Close())
			fmt.Printf("flight recorder JSONL written to %s\n", *flightTo)
		}
	}
	if *timeTo != "" {
		if *timeTo == "-" {
			fmt.Println("causal timeline (Chrome trace-event JSON):")
			fatal(d.WriteTimeline(os.Stdout))
		} else {
			f, err := os.Create(*timeTo)
			fatal(err)
			fatal(d.WriteTimeline(f))
			fatal(f.Close())
			fmt.Printf("causal timeline written to %s\n", *timeTo)
		}
	}

	if *serveAddr != "" {
		fmt.Println("telemetry: run finished, serving until interrupted")
		select {}
	}
}

// applyFailures applies -fail and -blackhole.
func applyFailures(d *smartsouth.Deployment, apply func(string, func(u, v int))) {
	apply(*fails, func(u, v int) {
		if err := d.Net.SetLinkDown(u, v, true); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("failed link %d-%d\n", u, v)
	})
	apply(*blackhole, func(u, v int) {
		if err := d.Net.SetBlackhole(u, v, false); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("planted silent blackhole %d -> %d\n", u, v)
	})
}

func parseMembers(s string) []smartsouth.PrioMember {
	if s == "" {
		return nil
	}
	var out []smartsouth.PrioMember
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(part, ":", 2)
		node, err := strconv.Atoi(kv[0])
		if err != nil {
			log.Fatalf("bad member %q", part)
		}
		prio := 1
		if len(kv) == 2 {
			prio, err = strconv.Atoi(kv[1])
			if err != nil {
				log.Fatalf("bad priority in %q", part)
			}
		}
		out = append(out, smartsouth.PrioMember{Node: node, Prio: prio})
	}
	return out
}

func fatal(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
