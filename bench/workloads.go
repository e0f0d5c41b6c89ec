package main

import (
	"fmt"
	"runtime"
	"time"

	"smartsouth"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

// cold is one cold deploy: smartsouth.Deploy, the service installs, and the
// first verified answer of every installed service that has one.
type cold struct {
	f    *fabric
	wall time.Duration
	ops  opTimer // the first answers
}

// coldDeploy runs one cold deploy under a "harness.cold" root span. The
// clock stops after the last first answer has been checked.
func coldDeploy(r *run, p *plan, svcs []string, opts ...smartsouth.Option) (*cold, error) {
	c := &cold{}
	root := r.tr.begin("harness.cold")
	defer r.tr.end(root)
	t0 := time.Now()
	f, err := deployFacade(r.tr, p, svcs, opts...)
	if err != nil {
		return nil, err
	}
	c.f = f
	for _, svc := range svcs {
		switch svc {
		case svcSnapshot:
			c.ops.do(func() (int, error) { return f.snapshotOp(r.tr, p.root0) })
		case svcSnapSplit:
			c.ops.do(func() (int, error) { return f.splitOp(r.tr, p.root0) })
		case svcAnycast:
			c.ops.do(func() (int, error) { return f.anycastOp(r.tr, p.sender0, 1) })
		case svcCritical:
			c.ops.do(func() (int, error) { return f.criticalOp(r.tr, p.node0) })
		case svcBlackhole:
			c.ops.do(func() (int, error) { return f.detectOp(r.tr, p.root0) })
		}
	}
	c.wall = time.Since(t0)
	return c, nil
}

// block times one block of a measured section and notes whether the
// hypervisor stole more than a hundredth of it (one clock tick per second;
// any tick at all for blocks under a second).
type block struct {
	t0    time.Time
	steal int64
}

func startBlock() block { return block{time.Now(), stolen()} }

func (b block) stop() (wall time.Duration, disturbed bool) {
	wall = time.Since(b.t0)
	return wall, stolen()-b.steal > int64(wall.Seconds())
}

// setUp runs a workload's set-up reps times and reports the medians: the
// whole set-up (setup_s), the input generation inside it (topo.build_ms)
// and, where set-up deploys, the deploy-to-collect time. It returns the
// plan and deployment of the last repetition for the measured section.
func setUp(r *run, reps int, mkGraph func() (*topo.Graph, error), deploy func(p *plan) (*cold, error)) (*plan, *cold, error) {
	var setup, d2c samples
	var build []float64
	var p *plan
	var c *cold
	for k := 0; k < reps; k++ {
		if deploy != nil {
			c = nil
			runtime.GC() // outside the timers: the previous repetition's deployment is garbage
		}
		r.tr.cycle(fmt.Sprintf("%s/setup-%d", r.name, k), true)
		b := startBlock()
		g, err := mkGraph()
		if err != nil {
			return nil, nil, err
		}
		p = newPlan(g, r.cfg.seed)
		build = append(build, time.Since(b.t0).Seconds()*1e3)
		if deploy != nil {
			if c, err = deploy(p); err != nil {
				return nil, nil, err
			}
			r.book(&c.ops)
		}
		wall, disturbed := b.stop()
		setup.add(wall.Seconds(), disturbed)
		if deploy != nil {
			d2c.add(c.wall.Seconds(), disturbed)
		}
	}
	r.set("setup_s", setup.median())
	r.set("topo.build_ms", median(build))
	if deploy != nil {
		r.set("deploy_to_collect_s", d2c.median())
	}
	r.setAside("set-up repetitions", &setup)
	return p, c, nil
}

// timing reports a section's per-op wall times: the median as cycle_p50_ms
// and, as information only, the highest percentile the sample supports — a
// closed-loop simulator has no latency limit, and a tail on a shared box
// measures the neighbours.
func (r *run) timing(each *samples) {
	eachMs := each.kept()
	r.set("cycle_p50_ms", median(eachMs))
	if p, ok := tailPercentile(len(eachMs)); ok {
		r.note("cycle p%g = %.4g ms over %d samples (information only)", 100*p, quantile(eachMs, p), len(eachMs))
	} else {
		r.note("cycle median over %d samples; too few for a tail percentile", len(eachMs))
	}
}

// setAside notes how many blocks the medians left out.
func (r *run) setAside(what string, s *samples) {
	if n := len(s.xs) - len(s.kept()); n > 0 {
		r.note("%d of %d %s set aside: the hypervisor stole CPU time while they ran", n, len(s.xs), what)
	}
}

// repeats checks that a block's in-band message count equals the first
// block's: the inputs are fixed, so the simulated statistic must repeat.
func (r *run) repeats(what string, first, got int) {
	if got != first {
		r.fail(fmt.Errorf("%s: %d in-band messages, the first had %d; a fixed input must repeat exactly", what, got, first))
	}
}

// finish reports what every workload reports the same way.
func (r *run) finish(f *fabric, inband int) {
	rules := float64(f.ruleEntries())
	r.set("rule_entries", rules)
	r.set("inband_msgs", float64(inband))
	r.set("harness.rule_entries", rules)
	r.set("harness.inband_msgs", float64(inband))
	r.set("peak_rss_mb", peakRSSMB())
	r.set("smartsouth.ns_per_hop", 1e9/r.vals["hops_per_s"])
}

// monitor-240 ---------------------------------------------------------------

var monitorServices = []string{svcSnapshot, svcAnycast, svcPriocast, svcCritical}

func runMonitor(r *run) error {
	n := r.pick(240, 20)
	p, c, err := setUp(r, r.pick(9, 2),
		func() (*topo.Graph, error) { return topo.RandomConnected(n, n/2, r.cfg.seed), nil },
		func(p *plan) (*cold, error) {
			return coldDeploy(r, p, monitorServices, smartsouth.WithBackend("of13"))
		})
	if err != nil {
		return err
	}
	f := c.f
	sched := p.schedule(r.pick(16, 2))
	runtime.GC() // outside the timers: let the GC cycle the set-up started finish

	var ops opTimer
	var rates, each samples
	var walls cycleWalls // round wall time
	firstHops := 0
	before := takeProbe(r)
	deadline := time.Now().Add(r.measureFor())
	for round := 0; round < 2 || (time.Now().Before(deadline) && !r.cfg.quick); round++ {
		traced := r.traced() && round%2 == 1
		r.tr.cycle(fmt.Sprintf("%s/round-%d", r.name, round), traced)
		b, h0, n0 := startBlock(), ops.hops, len(ops.each)
		for _, op := range sched {
			ops.do(func() (int, error) { return f.rotate(r.tr, op) })
		}
		wall, disturbed := b.stop()
		hops := ops.hops - h0
		rates.add(float64(hops)/wall.Seconds(), disturbed)
		for _, ms := range ops.each[n0:] {
			each.add(ms, disturbed)
		}
		walls.add(traced, wall.Seconds())
		if round == 0 {
			firstHops = hops
		}
		r.repeats("monitoring round", firstHops, hops)
	}
	after := takeProbe(r)
	r.book(&ops)
	r.set("hops_per_s", rates.median())
	r.timing(&each)
	r.setAside("rounds", &rates)
	r.finish(f, firstHops)
	if !r.traced() {
		return nil
	}
	r.counters(before, after, ops.hops, ops.attempted, ratio(mallocs(before, after), float64(ops.hops)))
	r.overhead(walls)
	r.ledgers("harness.op", f)
	progs := f.d.Programs()
	f, c = nil, nil
	if err := r.replayInstall(p.g, progs, network.Options{}); err != nil {
		return err
	}
	return r.perHopArms(p, sched)
}

// measureFor is the length of a measured section. A traced run measures for
// half as long: its numbers carry no bounds, and it spends the rest of its
// time on replays.
func (r *run) measureFor() time.Duration {
	s := r.cfg.seconds
	if r.traced() {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// cycleWalls collects the wall times of a traced run's primary cycles, the
// untraced ones and the traced ones they alternate with.
type cycleWalls struct{ untraced, traced []float64 }

func (w *cycleWalls) add(traced bool, wall float64) {
	if traced {
		w.traced = append(w.traced, wall)
	} else {
		w.untraced = append(w.untraced, wall)
	}
}

// deploy-240 and deploy-240-stateful -----------------------------------------

var deployServices = []string{svcSnapshot, svcAnycast, svcPriocast, svcCritical, svcBlackhole}

func runDeployOF13(r *run) error     { return runDeploy(r, "of13") }
func runDeployStateful(r *run) error { return runDeploy(r, "stateful") }

// churn is one reconfiguration round on a live deployment: reset the smart
// counters and detect again, then swap the anycast service for one with a
// new member and send to it.
func churn(r *run, f *fabric) (ops opTimer, wall time.Duration, err error) {
	root := r.tr.begin("harness.churn")
	defer r.tr.end(root)
	t0 := time.Now()
	r.tr.timed("core.ResetCounters", f.bh.ResetCounters)
	ops.do(func() (int, error) { return f.detectOp(r.tr, f.p.root0) })
	r.tr.timed("smartsouth.Uninstall", func() { f.d.Uninstall(f.any.Prog.Slot) })
	id := r.tr.begin("smartsouth.Install." + svcAnycast)
	f.any, err = f.d.InstallAnycast(map[uint32][]int{1: {f.p.swapMember}})
	r.tr.end(id)
	if err != nil {
		return ops, 0, fmt.Errorf("reinstall anycast: %w", err)
	}
	ops.do(func() (int, error) { return f.anycastOp(r.tr, f.p.sender0, 1) })
	return ops, time.Since(t0), nil
}

func runDeploy(r *run, backend string) error {
	n := r.pick(240, 20)
	p, _, err := setUp(r, r.pick(25, 2),
		func() (*topo.Graph, error) { return topo.RandomConnected(n, n/2, r.cfg.seed), nil }, nil)
	if err != nil {
		return err
	}
	var d2c, churnMs, rates, opNs samples
	var walls cycleWalls // cold + churn wall time
	var last *fabric
	firstHops, cycles := 0, 0
	before := takeProbe(r)
	deadline := time.Now().Add(r.measureFor())
	for ; cycles < 2 || (time.Now().Before(deadline) && !r.cfg.quick); cycles++ {
		last = nil
		runtime.GC() // outside the timers: a cycle starts from a collected heap
		traced := r.traced() && cycles%2 == 1
		r.tr.cycle(fmt.Sprintf("%s/cycle-%d", r.name, cycles), traced)
		b := startBlock()
		c, err := coldDeploy(r, p, deployServices, smartsouth.WithBackend(backend))
		if err != nil {
			return err
		}
		ch, chWall, err := churn(r, c.f)
		if err != nil {
			return err
		}
		_, disturbed := b.stop()
		r.book(&c.ops)
		r.book(&ch)
		d2c.add(c.wall.Seconds(), disturbed)
		churnMs.add(chWall.Seconds()*1e3, disturbed)
		hops := c.ops.hops + ch.hops
		rates.add(float64(hops)/(c.wall+chWall).Seconds(), disturbed)
		opNs.add(float64((c.ops.wall+ch.wall).Nanoseconds())/float64(hops), disturbed)
		walls.add(traced, (c.wall + chWall).Seconds())
		if cycles == 0 {
			firstHops = hops
		}
		r.repeats("deploy cycle", firstHops, hops)
		last = c.f
	}
	after := takeProbe(r)
	r.set("deploy_to_collect_s", d2c.median())
	r.set("hops_per_s", rates.median())
	r.timing(&churnMs)
	r.setAside("cycles", &d2c)
	r.finish(last, firstHops)
	if !r.traced() {
		return nil
	}
	r.counters(before, after, firstHops*cycles, cycles, 0)
	// Here hops_per_s is the throughput of the whole cycle, so the per-hop
	// figure is taken over the cycle's six traversals alone: the hop loop on
	// tables that were written a moment ago.
	r.set("smartsouth.ns_per_hop", opNs.median())
	r.overhead(walls)
	r.ledgers("harness.cold", last)
	progs := last.d.Programs()
	last = nil
	return r.replayInstall(p.g, progs, network.Options{})
}

// scale-10k -----------------------------------------------------------------

func runScale(r *run) error {
	pops, perPop := r.pick(500, 5), r.pick(20, 4)
	p, _, err := setUp(r, r.pick(25, 2),
		func() (*topo.Graph, error) { return topo.ISP(pops, perPop, r.cfg.seed) }, nil)
	if err != nil {
		return err
	}
	n := p.g.NumNodes()
	// A cold cycle at this scale takes seconds, so -seconds cannot buy one
	// sample more or less inside a run: the cycle count is a step function
	// of it, clamped to what a median needs and a run can afford.
	cycles := min(max(int(r.cfg.seconds/2.4), 3), 7)
	if r.traced() {
		cycles = min(cycles, 4)
	}
	cycles = r.pick(cycles, 2)
	const warmPerCycle = 6

	var d2c, rates, each samples
	var warm opTimer
	var walls cycleWalls
	var last *fabric
	firstHops, warmAllocs := 0, 0.0
	before := takeProbe(r)
	for cyc := 0; cyc < cycles; cyc++ {
		last = nil
		runtime.GC()
		traced := r.traced() && cyc%2 == 1
		r.tr.cycle(fmt.Sprintf("%s/cycle-%d", r.name, cyc), traced)
		b := startBlock()
		c, err := coldDeploy(r, p, []string{svcSnapshot}, smartsouth.WithBackend("of13"))
		if err != nil {
			return err
		}
		_, disturbed := b.stop()
		r.book(&c.ops)
		d2c.add(c.wall.Seconds(), disturbed)
		walls.add(traced, c.wall.Seconds())
		// Warm traversals from roots spread over the node range, offset by
		// the seeded first root. The collection first lets the GC cycle the
		// deploy's allocations started run to its end outside the timers: the
		// traversals allocate nothing, so on a deployment that lives longer
		// than one benchmark cycle they never share the machine with a mark
		// phase.
		runtime.GC()
		hops := 0
		warmStart := takeProbe(r)
		for j := 0; j < warmPerCycle; j++ {
			root := (p.root0 + (j+1)*n/(warmPerCycle+1)) % n
			b := startBlock()
			h, ms := warm.do(func() (int, error) {
				id := r.tr.begin("harness.op")
				defer r.tr.end(id)
				return c.f.snapshotOp(r.tr, root)
			})
			_, disturbed := b.stop()
			each.add(ms, disturbed)
			rates.add(float64(h)/(ms/1e3), disturbed)
			hops += h
		}
		if r.traced() {
			warmAllocs += mallocs(warmStart, takeProbe(r))
		}
		if cyc == 0 {
			firstHops = c.ops.hops + hops
		}
		r.repeats("scale cycle", firstHops, c.ops.hops+hops)
		last = c.f
	}
	after := takeProbe(r)
	r.book(&warm)
	r.set("deploy_to_collect_s", d2c.median())
	r.set("hops_per_s", rates.median())
	r.timing(&each)
	r.setAside("cold cycles", &d2c)
	r.setAside("warm traversals", &each)
	r.finish(last, firstHops)
	if !r.traced() {
		return nil
	}
	r.counters(before, after, firstHops*cycles, cycles, ratio(warmAllocs, float64(warm.hops)))
	r.overhead(walls)
	r.ledgers("harness.cold", last)
	progs := last.d.Programs()
	last = nil
	if err := r.replayInstall(p.g, progs, network.Options{}); err != nil {
		return err
	}
	progs = nil
	runtime.GC() // the bare deployment below needs the room
	return r.scaleArms(p, warmPerCycle)
}

// burst-fattree-2shard --------------------------------------------------------

const burstShards = 2

// burst injects sweeps concurrent splitting-snapshot triggers 50 ns apart
// and drains them in one Run.
func burst(r *run, f *fabric, sweeps int) (int, error) {
	id := r.tr.begin("harness.op")
	defer r.tr.end(id)
	f.cp.ClearInbox()
	before := f.net.TotalInBand()
	base := f.soon()
	n := f.p.g.NumNodes()
	r.tr.timed("core.Trigger.snapsplit", func() {
		for t := 0; t < sweeps; t++ {
			f.split.Trigger((f.p.root0+t*37)%n, base+network.Time(t)*50)
		}
	})
	var err error
	r.tr.timed("smartsouth.Run", func() { err = f.run() })
	return f.net.TotalInBand() - before, err
}

func runBurst(r *run) error {
	if procs := runtime.GOMAXPROCS(0); procs < burstShards {
		return fmt.Errorf("%s needs GOMAXPROCS >= %d to mean anything, have %d", r.name, burstShards, procs)
	}
	k, sweeps := r.pick(16, 4), r.pick(64, 8)
	deploy := func(shards int) func(p *plan) (*cold, error) {
		return func(p *plan) (*cold, error) {
			return coldDeploy(r, p, []string{svcSnapSplit}, smartsouth.WithBackend("of13"), smartsouth.WithShards(shards))
		}
	}
	p, c, err := setUp(r, r.pick(4, 2), func() (*topo.Graph, error) { return topo.FatTree(k) }, deploy(burstShards))
	if err != nil {
		return err
	}
	// arms[0] is the sharded deployment every run measures; a traced run adds
	// the same burst on one shard, interleaved, as the base of the speedup.
	arms := []*fabric{c.f}
	if r.traced() {
		r.tr.cycle(r.name+"/setup-1shard", true)
		one, err := deploy(1)(p)
		if err != nil {
			return err
		}
		r.book(&one.ops)
		arms = append(arms, one.f)
	}
	runtime.GC() // outside the timers: let the GC cycle the set-up started finish
	var ops [2]opTimer
	var rates, each [2]samples
	var walls cycleWalls
	firstHops := 0
	before := takeProbe(r)
	deadline := time.Now().Add(r.measureFor())
	for i := 0; i < 2 || (time.Now().Before(deadline) && !r.cfg.quick); i++ {
		traced := r.traced() && i%2 == 1
		for a, f := range arms {
			r.tr.cycle(fmt.Sprintf("%s/burst-%d-%dshard", r.name, i, f.net.Shards()), traced)
			b := startBlock()
			hops, ms := ops[a].do(func() (int, error) {
				h, err := burst(r, f, sweeps)
				if firstHops == 0 {
					firstHops = h
				}
				if err == nil {
					err = checkBurst(p.g, sweeps, h, firstHops)
				}
				return h, err
			})
			_, disturbed := b.stop()
			rates[a].add(float64(hops)/(ms/1e3), disturbed)
			each[a].add(ms, disturbed)
			if a == 0 {
				walls.add(traced, ms)
			}
		}
	}
	after := takeProbe(r)
	r.book(&ops[0])
	r.book(&ops[1])
	r.set("hops_per_s", rates[0].median())
	r.timing(&each[0])
	r.setAside("bursts", &each[0])
	r.finish(c.f, firstHops)
	if !r.traced() {
		return nil
	}
	hops := ops[0].hops + ops[1].hops
	r.counters(before, after, hops, ops[0].attempted+ops[1].attempted, ratio(mallocs(before, after), float64(hops)))
	r.shardCounters(before, after, &ops[0])
	r.set("network.hops_per_s_1shard", rates[1].median())
	r.set("network.shard_speedup", rates[0].median()/rates[1].median())
	r.overhead(walls)
	r.ledgers("harness.op", c.f)
	progs := c.f.d.Programs()
	c, arms = nil, nil
	return r.replayInstall(p.g, progs, network.Options{Shards: burstShards})
}
