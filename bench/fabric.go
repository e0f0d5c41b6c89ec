package main

import (
	"fmt"
	"math/rand"
	"time"

	"smartsouth"
	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/topo"
)

// plan is the generated input of one workload: the topology, the oracle
// answers derived from it, and every choice the seed makes (group
// membership, trigger roots, senders). The program only ever sees a plan's
// contents, never the seed.
type plan struct {
	g    *topo.Graph
	cuts map[int]bool // articulation points: the critical-node oracle

	anyGroups  map[uint32][]int
	prioGroups map[uint32][]smartsouth.PrioMember
	prioBest   map[uint32][]int // the one highest-priority member per group
	swapMember int              // the member the churn round re-installs anycast group 1 with

	// Where the first answers of a cold deploy are asked from.
	root0, sender0, node0 int

	seed int64
}

const numGroups = 2 // anycast and priocast groups, ids 1..numGroups

// newPlan derives the oracle and the seeded choices for graph g.
func newPlan(g *topo.Graph, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	p := &plan{
		g: g, cuts: topo.ArticulationPoints(g), seed: seed,
		anyGroups:  map[uint32][]int{},
		prioGroups: map[uint32][]smartsouth.PrioMember{},
		prioBest:   map[uint32][]int{},
	}
	for gid := uint32(1); gid <= numGroups; gid++ {
		perm := rng.Perm(n)
		p.anyGroups[gid] = append([]int(nil), perm[:3]...)
		best := 0
		for i, node := range perm[3:6] {
			prio := 1 + rng.Intn(4) + 5*i // distinct by construction: 1-4, 6-9, 11-14
			p.prioGroups[gid] = append(p.prioGroups[gid], smartsouth.PrioMember{Node: node, Prio: prio})
			best = node
		}
		p.prioBest[gid] = []int{best}
	}
	p.swapMember = rng.Intn(n)
	p.root0, p.sender0, p.node0 = rng.Intn(n), rng.Intn(n), rng.Intn(n)
	return p
}

// Kinds of op in a monitoring rotation.
const (
	opSnapshot = iota
	opAnycast
	opPriocast
	opCritical
)

// opSpec is one op of the monitoring rotation: which service, asked from
// which switch (root, sender or checked node), for which group.
type opSpec struct {
	kind int
	at   int
	gid  uint32
}

// schedule is one round of the monitoring rotation: perService ops of each
// of the four services, interleaved, with seeded roots, senders and groups.
// Every round replays the same schedule, so a round's in-band message count
// must repeat exactly.
func (p *plan) schedule(perService int) []opSpec {
	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	n := p.g.NumNodes()
	var s []opSpec
	for i := 0; i < perService; i++ {
		for kind := opSnapshot; kind <= opCritical; kind++ {
			s = append(s, opSpec{kind: kind, at: rng.Intn(n), gid: 1 + uint32(rng.Intn(numGroups))})
		}
	}
	return s
}

// Services the benchmark installs, by the name their install span carries.
const (
	svcSnapshot  = "snapshot"
	svcAnycast   = "anycast"
	svcPriocast  = "priocast"
	svcCritical  = "critical"
	svcBlackhole = "blackhole-counter"
	svcSnapSplit = "snapsplit"
)

// splitBudget is the per-fragment record budget of the splitting snapshot.
const splitBudget = 16

// fabric is one deployment with the benchmark's services on it, reached
// either through the facade (d != nil) — what users call — or through the
// bare network + controller + core installers the facade is built from,
// which the per-hop arms use to price what the facade adds.
type fabric struct {
	p   *plan
	d   *smartsouth.Deployment
	net *network.Network
	ctl *controller.Controller
	cp  core.ControlPlane
	tp  *timedPlane // non-nil on a traced facade deployment
	run func() error

	snap  *core.Snapshot
	split *core.SnapshotSplit
	any   *core.Anycast
	prio  *core.Priocast
	crit  *core.Critical
	bh    *core.BlackholeCounter

	delivered int // switch of the last SELF delivery, -1 for none
}

// deployFacade deploys p's graph through smartsouth.Deploy and installs
// svcs in order, with a span around each call.
func deployFacade(tr *tracer, p *plan, svcs []string, opts ...smartsouth.Option) (*fabric, error) {
	f := &fabric{p: p, delivered: -1}
	tr.timed("smartsouth.Deploy", func() { f.d = smartsouth.Deploy(p.g, opts...) })
	f.net, f.ctl, f.run = f.d.Net, f.d.Ctl, f.d.Run
	if tr != nil {
		f.tp = &timedPlane{ControlPlane: f.d.CP, tr: tr}
		f.d.CP = f.tp
	}
	f.cp = f.d.CP
	f.d.OnDeliver(func(sw int, _ *smartsouth.Packet) { f.delivered = sw })
	for _, svc := range svcs {
		if err := f.install(tr, svc); err != nil {
			return nil, fmt.Errorf("install %s: %w", svc, err)
		}
	}
	return f, nil
}

// install installs one service through the facade.
func (f *fabric) install(tr *tracer, svc string) (err error) {
	id := tr.begin("smartsouth.Install." + svc)
	defer tr.end(id)
	switch svc {
	case svcSnapshot:
		f.snap, err = f.d.InstallSnapshot()
	case svcAnycast:
		f.any, err = f.d.InstallAnycast(f.p.anyGroups)
	case svcPriocast:
		f.prio, err = f.d.InstallPriocast(f.p.prioGroups)
	case svcCritical:
		f.crit, err = f.d.InstallCritical()
	case svcBlackhole:
		f.bh, err = f.d.InstallBlackholeCounter()
	case svcSnapSplit:
		f.split, err = f.d.InstallSnapshotSplit(splitBudget)
	default:
		err = fmt.Errorf("unknown service %q", svc)
	}
	return err
}

// deployBare builds the same deployment without the facade: network.New,
// controller.New and the core installers, one slot per service.
func deployBare(p *plan, svcs []string, o network.Options) (*fabric, error) {
	f := &fabric{p: p, delivered: -1}
	f.net = network.New(p.g, o)
	f.ctl = controller.New(f.net)
	f.cp = f.ctl
	f.run = func() error { _, err := f.ctl.RunNetwork(); return err }
	f.net.OnSelf = func(sw int, _ *smartsouth.Packet) { f.delivered = sw }
	for slot, svc := range svcs {
		var err error
		switch svc {
		case svcSnapshot:
			f.snap, err = core.InstallSnapshot(f.cp, p.g, slot)
		case svcAnycast:
			f.any, err = core.InstallAnycast(f.cp, p.g, slot, p.anyGroups)
		case svcPriocast:
			f.prio, err = core.InstallPriocast(f.cp, p.g, slot, p.prioGroups)
		case svcCritical:
			f.crit, err = core.InstallCritical(f.cp, p.g, slot)
		default:
			err = fmt.Errorf("unknown service %q", svc)
		}
		if err != nil {
			return nil, fmt.Errorf("install %s: %w", svc, err)
		}
	}
	return f, nil
}

func (f *fabric) soon() network.Time { return f.net.Sim.Now() + 1 }

// ruleEntries is the rule-space figure: flow + group + state entries over
// all retained programs.
func (f *fabric) ruleEntries() int {
	return f.d.FlowEntries() + f.d.GroupEntries() + f.d.StateEntries()
}

// An op is one trigger→answer operation. Each returns the in-band link
// crossings it caused and the oracle's verdict on its answer.

// ask is the shape every op has: trigger, run the network to quiescence,
// collect the answer (nil when the answer is a delivery, not a report), and
// hand it to the oracle. The collect span covers the service's own decoding
// only; the oracle runs outside it.
func (f *fabric) ask(tr *tracer, svc string, trigger func(at network.Time), collect func() error, check func(hops int) error) (int, error) {
	f.cp.ClearInbox()
	f.delivered = -1
	before := f.net.TotalInBand()
	tr.timed("core.Trigger."+svc, func() { trigger(f.soon()) })
	var err error
	tr.timed("smartsouth.Run", func() { err = f.run() })
	hops := f.net.TotalInBand() - before
	if collect != nil {
		var cerr error
		tr.timed("core.Collect."+svc, func() { cerr = collect() })
		if err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = check(hops)
	}
	return hops, err
}

func (f *fabric) snapshotOp(tr *tracer, root int) (int, error) {
	var res *core.Result
	return f.ask(tr, svcSnapshot,
		func(at network.Time) { f.snap.Trigger(root, at) },
		func() (err error) { res, err = f.snap.Collect(); return err },
		func(hops int) error { return checkSnapshot(f.p.g, res, hops) })
}

func (f *fabric) splitOp(tr *tracer, root int) (int, error) {
	var res *core.Result
	return f.ask(tr, svcSnapSplit,
		func(at network.Time) { f.split.Trigger(root, at) },
		func() (err error) { res, _, err = f.split.Collect(); return err },
		func(int) error { return checkTopology(f.p.g, res) })
}

func (f *fabric) anycastOp(tr *tracer, from int, gid uint32) (int, error) {
	return f.ask(tr, svcAnycast,
		func(at network.Time) { f.any.Send(from, gid, nil, at) }, nil,
		func(int) error { return checkDelivered(svcAnycast, f.delivered, f.any.Groups[gid]) })
}

func (f *fabric) priocastOp(tr *tracer, from int, gid uint32) (int, error) {
	return f.ask(tr, svcPriocast,
		func(at network.Time) { f.prio.Send(from, gid, nil, at) }, nil,
		func(int) error { return checkDelivered(svcPriocast, f.delivered, f.p.prioBest[gid]) })
}

func (f *fabric) criticalOp(tr *tracer, node int) (int, error) {
	var critical, ok bool
	return f.ask(tr, svcCritical,
		func(at network.Time) { f.crit.Check(node, at) },
		func() error { critical, ok = f.crit.Verdict(); return nil },
		func(int) error { return checkCritical(node, critical, ok, f.p.cuts) })
}

// detectOp is one smart-counter blackhole detection round on a fabric the
// benchmark never breaks, so the only right answer is "done, none found".
func (f *fabric) detectOp(tr *tracer, root int) (int, error) {
	var found, done bool
	return f.ask(tr, svcBlackhole,
		func(at network.Time) { f.bh.Detect(root, at, 0) },
		func() error { _, found, done = f.bh.Outcome(); return nil },
		func(int) error { return checkHealthy(found, done) })
}

// rotate runs one op of the monitoring rotation under its own root span.
func (f *fabric) rotate(tr *tracer, op opSpec) (hops int, err error) {
	id := tr.begin("harness.op")
	defer tr.end(id)
	switch op.kind {
	case opSnapshot:
		return f.snapshotOp(tr, op.at)
	case opAnycast:
		return f.anycastOp(tr, op.at, op.gid)
	case opPriocast:
		return f.priocastOp(tr, op.at, op.gid)
	default:
		return f.criticalOp(tr, op.at)
	}
}

// opTimer accumulates what a measured section needs from its ops: how many
// were issued and failed, their hops, and the wall time of each.
type opTimer struct {
	attempted, failed int
	hops              int
	wall              time.Duration
	each              []float64 // per-op wall time, ms
	firstErr          error
}

// do runs one op, books it, and returns its hops and wall time in ms.
func (o *opTimer) do(op func() (int, error)) (hops int, ms float64) {
	t0 := time.Now()
	hops, err := op()
	el := time.Since(t0)
	ms = float64(el.Nanoseconds()) / 1e6
	o.attempted++
	o.hops += hops
	o.wall += el
	o.each = append(o.each, ms)
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
	return hops, ms
}
