package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"smartsouth"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// The per-layer half of a traced run. Nothing here is read from inside the
// program: layer times are self times of the harness's own spans, counts are
// deltas of public counters across the measured section, and what cannot be
// separated by a span (verify inside an installer, Materialize and
// CompileDispatch inside InstallProgram, ExecBatch inside Run) is priced by
// replaying the same inputs against the layer's public entry point.

// probe is a reading of the process-wide counters at one instant.
type probe struct {
	tel smartsouth.Telemetry
	mem runtime.MemStats
}

// takeProbe reads the counters on a traced run; untraced runs skip the
// stop-the-world ReadMemStats.
func takeProbe(r *run) *probe {
	if !r.traced() {
		return nil
	}
	p := &probe{tel: smartsouth.TelemetrySnapshot()}
	runtime.ReadMemStats(&p.mem)
	return p
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters turns the counter deltas of a measured section into per-hop and
// per-lookup figures, and the GC's share into the harness.* metrics.
// allocsPerHop comes from the workload, which takes it over hop-only
// sections (0 where there is none): over a section that also deploys it
// would count the compiler's allocations.
func (r *run) counters(a, b *probe, hops, cycles int, allocsPerHop float64) {
	h := float64(hops)
	r.set("network.allocs_per_hop", allocsPerHop)
	lookups := float64(b.tel.FlowLookups - a.tel.FlowLookups)
	r.set("openflow.lookups_per_hop", ratio(lookups, h))
	r.set("openflow.fallback_lookup_share", ratio(float64(b.tel.FallbackLookups-a.tel.FallbackLookups), lookups))
	r.set("openflow.scanned_per_lookup", ratio(float64(b.tel.FlowScanned-a.tel.FlowScanned), lookups))
	gets := float64(b.tel.PoolGets - a.tel.PoolGets)
	r.set("openflow.pool_hit_rate", 1-ratio(float64(b.tel.PoolMisses-a.tel.PoolMisses), gets))
	var events int64
	for kind, n := range b.tel.Events {
		events += n - a.tel.Events[kind]
	}
	r.set("network.events_per_hop", ratio(float64(events), h))
	r.set("network.heap_peak", float64(b.tel.HeapPeak))
	r.set("harness.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	r.set("harness.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	r.set("harness.alloc_mb_per_cycle", ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/(1<<20), float64(cycles)))
}

// mallocs is the number of heap objects allocated between two probes.
func mallocs(a, b *probe) float64 { return float64(b.mem.Mallocs - a.mem.Mallocs) }

// shardCounters reports the sharded engine's runtime counters over the
// bursts of the sharded arm. Only sharded runs feed these series, so the
// deltas (and the cumulative histograms) describe that arm alone.
func (r *run) shardCounters(a, b *probe, sharded *opTimer) {
	bursts := float64(sharded.attempted)
	r.set("network.shard_windows", ratio(float64(b.tel.ShardWindows-a.tel.ShardWindows), bursts))
	r.set("network.window_sim_ns_p50", float64(b.tel.WindowSimNs.P50))
	stall := float64(b.tel.BarrierStallNs.Sum - a.tel.BarrierStallNs.Sum)
	r.set("network.barrier_stall_share", ratio(stall, burstShards*float64(sharded.wall.Nanoseconds())))
	r.set("network.cut_msgs_share", ratio(float64(b.tel.CutMsgs-a.tel.CutMsgs), float64(sharded.hops)))
	r.set("network.staged_depth_p50", float64(b.tel.StagedDepth.P50))
	r.set("network.shard_imbalance", b.tel.ShardImbalance)
}

// overhead reports what the harness's own spans cost: the median wall time
// of the traced cycles over that of the untraced cycles they alternate with.
func (r *run) overhead(w cycleWalls) {
	if len(w.untraced) == 0 || len(w.traced) == 0 {
		return
	}
	r.set("harness.trace_overhead_pct", 100*(median(w.traced)/median(w.untraced)-1))
}

// sumPrefix sums the entries of m whose name starts with prefix.
func sumPrefix(m map[string]int64, prefix string) float64 {
	var t int64
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			t += v
		}
	}
	return float64(t)
}

// medianOver is the median of get over the ledgers whose root is named root.
func medianOver(ls []ledger, root string, get func(*ledger) float64) float64 {
	var xs []float64
	for i := range ls {
		if ls[i].root.Name == root {
			xs = append(xs, get(&ls[i]))
		}
	}
	return median(xs)
}

// ledgers derives the span-based per-layer metrics. Cold-deploy stages come
// from the "harness.cold" roots (the measured cycles, or the set-up
// repetitions on workloads that deploy once); the trigger/run/collect split
// comes from the workload's primary operation.
func (r *run) ledgers(primary string, f *fabric) {
	ls := buildLedgers(r.tr.spans)
	ms := func(root, prefix string, self bool) float64 {
		return medianOver(ls, root, func(l *ledger) float64 {
			if self {
				return sumPrefix(l.self, prefix)
			}
			return sumPrefix(l.dur, prefix)
		}) / 1e6
	}
	r.set("smartsouth.deploy_ms", ms("harness.cold", "smartsouth.Deploy", false))
	r.set("controller.install_ms", ms("harness.cold", "controlplane.InstallProgram", false))
	// An installer's self time is everything it does outside InstallProgram:
	// compile and verify. replayInstall splits the two.
	r.set("core.compile_ms", ms("harness.cold", "smartsouth.Install.", true))
	r.set("core.trigger_us", 1e3*ms(primary, "core.Trigger.", false))
	r.set("core.collect_us", 1e3*ms(primary, "core.Collect.", false))
	r.set("network.run_ms", ms(primary, "smartsouth.Run", false))
	r.set("core.reset_counters_ms", ms("harness.churn", "core.ResetCounters", false))
	r.set("controller.uninstall_ms", ms("harness.churn", "smartsouth.Uninstall", false))
	r.set("core.reinstall_ms", ms("harness.churn", "smartsouth.Install.", false))
	r.set("core.churn_ms", ms("harness.churn", "harness.churn", false))

	st := f.ctl.Stats
	r.set("controller.install_calls", float64(f.tp.calls))
	r.set("controller.install_msgs", float64(st.InstallMsgs))
	r.set("controller.flow_mods", float64(st.FlowMods))
	r.set("openflow.config_bytes", float64(f.d.ConfigBytes()))

	if primary == "harness.cold" {
		cycle := ms("harness.cold", "harness.cold", false)
		parts := r.vals["smartsouth.deploy_ms"] + r.vals["core.compile_ms"] + r.vals["controller.install_ms"] +
			r.vals["network.run_ms"] + r.vals["core.collect_us"]/1e3
		r.note("ledger: deploy + compile + verify + install + run + collect = %.4g ms of a %.4g ms traced cold cycle (%.1f%%)",
			parts, cycle, 100*ratio(parts, cycle))
	}
}

// replayInstall prices the stages a span cannot separate by running them
// again from a deployment's retained programs: verify.CheckProgram as the
// installers call it, network.New, and InstallProgram's two halves —
// SwitchProgram.Materialize and Switch.CompileDispatch, per program in
// install order — on that fresh network. It then moves the replayed verify
// time out of core.compile_ms. The caller has dropped the deployment itself:
// after the collection below the heap holds the programs and little else, as
// it did when the installers verified them, so the replay pays about the GC
// it paid then.
func (r *run) replayInstall(g *topo.Graph, progs []*openflow.Program, o network.Options) error {
	runtime.GC()
	r.tr.cycle(r.name+"/replay", true)
	root := r.tr.begin("harness.replay")
	defer r.tr.end(root)
	entries := 0
	t0 := time.Now()
	for _, p := range progs {
		entries += p.FlowCount() + p.GroupCount() + p.StateCount()
		var issues []verify.Issue
		r.tr.timed("verify.CheckProgram", func() { issues = verify.CheckProgram(p, verify.Options{SkipShadowing: true}) })
		if errs := verify.Errors(issues); len(errs) > 0 {
			return fmt.Errorf("replayed verify rejects installed program %q: %s", p.Service, errs[0])
		}
	}
	checkMs := time.Since(t0).Seconds() * 1e3
	r.set("verify.check_ms", checkMs)
	r.set("verify.check_us_per_entry", ratio(1e3*checkMs, float64(entries)))
	compile := r.vals["core.compile_ms"] - checkMs
	r.set("core.compile_ms", compile)
	r.set("core.compile_us_per_entry", ratio(1e3*compile, float64(entries)))

	t0 = time.Now()
	var net *network.Network
	r.tr.timed("network.New", func() { net = network.New(g, o) })
	r.set("network.new_ms", time.Since(t0).Seconds()*1e3)
	var mat, disp time.Duration
	for _, p := range progs {
		ids := p.SwitchIDs()
		t0 = time.Now()
		r.tr.timed("openflow.Materialize", func() {
			for _, id := range ids {
				p.At(id).Materialize(net.Switch(id))
			}
		})
		t1 := time.Now()
		r.tr.timed("openflow.CompileDispatch", func() {
			for _, id := range ids {
				net.Switch(id).CompileDispatch()
			}
		})
		mat += t1.Sub(t0)
		disp += time.Since(t1)
	}
	r.set("openflow.materialize_ms", mat.Seconds()*1e3)
	r.set("openflow.compile_dispatch_ms", disp.Seconds()*1e3)
	return nil
}

// Per-hop arms ---------------------------------------------------------------

// arm is one way of running the same traffic, timed in interleaved blocks.
type arm struct {
	name string
	f    *fabric
	ns   []float64 // per block: wall ns per in-band hop
}

// timeArms runs block on every arm in turn, blocks times over, and returns
// each arm's median ns per hop. Interleaving puts every arm under the same
// drift of the box.
func timeArms(arms []*arm, blocks int, block func(f *fabric) (hops int, err error)) error {
	for b := 0; b < blocks; b++ {
		for _, a := range arms {
			t0 := time.Now()
			hops, err := block(a.f)
			if err != nil {
				return fmt.Errorf("arm %s: %w", a.name, err)
			}
			a.ns = append(a.ns, float64(time.Since(t0).Nanoseconds())/float64(hops))
		}
	}
	return nil
}

// perHopArms splits monitor-240's cost per hop. The same rotation runs on
// five deployments — the facade, the facade with the hop trace, the facade
// with the timeline, the bare network with telemetry, the bare network
// without — and recorded arrivals are replayed through Switch.ExecBatch;
// each layer's cost is the difference between two neighbouring arms.
func (r *run) perHopArms(p *plan, sched []opSpec) error {
	facade := func(opts ...smartsouth.Option) (*fabric, error) {
		return deployFacade(nil, p, monitorServices, append(opts, smartsouth.WithBackend("of13"))...)
	}
	var arms []*arm
	for _, mk := range []struct {
		name string
		f    func() (*fabric, error)
	}{
		{"facade", func() (*fabric, error) { return facade() }},
		{"facade+trace", func() (*fabric, error) { return facade(smartsouth.WithTrace(1024)) }},
		{"facade+timeline", func() (*fabric, error) { return facade(smartsouth.WithTimeline(0)) }},
		{"bare", func() (*fabric, error) { return deployBare(p, monitorServices, network.Options{}) }},
		{"bare-notelemetry", func() (*fabric, error) {
			return deployBare(p, monitorServices, network.Options{NoTelemetry: true})
		}},
	} {
		f, err := mk.f()
		if err != nil {
			return fmt.Errorf("arm %s: %w", mk.name, err)
		}
		arms = append(arms, &arm{name: mk.name, f: f})
	}
	round := func(f *fabric) (int, error) {
		hops := 0
		for _, op := range sched {
			h, err := f.rotate(nil, op)
			if err != nil {
				return 0, err
			}
			hops += h
		}
		return hops, nil
	}
	if err := timeArms(arms, r.pick(20, 2), round); err != nil {
		return err
	}
	by := map[string]*arm{}
	for _, a := range arms {
		by[a.name] = a
		r.note("arm %-17s %.1f ns/hop (quartiles %.1f .. %.1f over %d blocks)", a.name, median(a.ns), quantile(a.ns, 0.25), quantile(a.ns, 0.75), len(a.ns))
	}
	// A layer's cost is the median of the per-block differences between two
	// neighbouring arms: the two sides of a pair ran back to back, so the
	// box's drift cancels.
	diff := func(with, without string) float64 {
		d := make([]float64, len(by[with].ns))
		for i := range d {
			d[i] = by[with].ns[i] - by[without].ns[i]
		}
		return median(d)
	}
	bareOff := by["bare-notelemetry"]
	exec, err := r.execReplay(bareOff.f, func() error { _, err := round(bareOff.f); return err })
	if err != nil {
		return err
	}
	r.set("smartsouth.ns_per_hop", median(by["facade"].ns))
	r.set("network.ns_per_hop", median(bareOff.ns))
	r.set("openflow.exec_ns_per_hop", exec)
	r.set("network.sched_ns_per_hop", median(bareOff.ns)-exec)
	r.set("telemetry.ns_per_hop", diff("bare", "bare-notelemetry"))
	r.set("metrics.ns_per_hop", diff("facade", "bare"))
	r.set("trace.ns_per_hop", diff("facade+trace", "facade"))
	r.set("telemetry.timeline_ns_per_hop", diff("facade+timeline", "facade"))
	return nil
}

// scaleArms is the part of the per-hop split that fits at 10 000 switches:
// one more deployment, bare and without telemetry, for network.ns_per_hop,
// and the exec replay on it.
func (r *run) scaleArms(p *plan, traversals int) error {
	f, err := deployBare(p, []string{svcSnapshot}, network.Options{NoTelemetry: true})
	if err != nil {
		return err
	}
	n := p.g.NumNodes()
	a := &arm{name: "bare-notelemetry", f: f}
	j := 0
	sweep := func(f *fabric) (int, error) {
		j++
		return f.snapshotOp(nil, (p.root0+j*n/(traversals+1))%n)
	}
	if err := timeArms([]*arm{a}, traversals, sweep); err != nil {
		return err
	}
	exec, err := r.execReplay(f, func() error { _, err := sweep(f); return err })
	if err != nil {
		return err
	}
	r.note("arm %s ns/hop per traversal: %.0f", a.name, a.ns)
	r.set("network.ns_per_hop", median(a.ns))
	r.set("openflow.exec_ns_per_hop", exec)
	r.set("network.sched_ns_per_hop", median(a.ns)-exec)
	return nil
}

// arrival is one recorded pipeline execution input.
type arrival struct {
	sw  int
	pkt *openflow.Packet
}

// A replay keeps whole windows of consecutive arrivals — a packet walking
// hop to hop keeps its own bytes warm, and a strided sample would lose that —
// and as many windows as fit the byte budget: a snapshot packet at 10 000
// switches carries its whole record trace.
const (
	replayWindow = 256
	replayBudget = 128 << 20
)

// execReplay prices the pipeline alone: it records the packets arriving at
// switches while drive runs on f (via Network.ObserveExec), then replays
// clones of them through Switch.ExecBatch directly — no event loop, no links,
// no observers — and returns wall ns per in-band hop of the driven traffic.
// f is spent afterwards: observing leaves recording on.
func (r *run) execReplay(f *fabric, drive func() error) (nsPerHop float64, err error) {
	bytes := 0
	f.net.ObserveExec(func(_, _ int, pkt *openflow.Packet, _ *openflow.Result) { bytes += pkt.Size() })
	hops0 := f.net.TotalInBand()
	if err := drive(); err != nil {
		return 0, err
	}
	hops := f.net.TotalInBand() - hops0
	keepEvery := 1 + bytes/replayBudget
	var rec []arrival
	seen := 0
	f.net.ObserveExec(func(sw, _ int, pkt *openflow.Packet, _ *openflow.Result) {
		if (seen/replayWindow)%keepEvery == 0 {
			rec = append(rec, arrival{sw, pkt.Clone()}) // the observed packet is only valid during the callback
		}
		seen++
	})
	if err := drive(); err != nil {
		return 0, err
	}
	if len(rec) == 0 || hops == 0 {
		return 0, fmt.Errorf("exec replay recorded %d arrivals over %d hops", len(rec), hops)
	}
	for i := 0; i < f.net.NumSwitches(); i++ {
		f.net.Switch(i).Record = false // ObserveExec turned step recording on
	}

	id := r.tr.begin("openflow.ExecBatch")
	defer r.tr.end(id)
	// Replay in small chunks, cloning a chunk outside the timer and executing
	// The clones are the harness's garbage, not the program's — the event loop
	// allocates nothing per hop — so the collector is held off while the
	// replay is timed rather than let it mark a live deployment mid-chunk.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// it inside. A chunk is at most 16 arrivals and at most 64 KiB of packets,
	// so that the copying done between two timed parts does not flush the
	// cache lines the timed part is about to need.
	const maxChunk = 16
	chunk := max(1, min(maxChunk, (64<<10)*seen/max(1, bytes)))
	xc := openflow.NewExecContext()
	var in [maxChunk]*openflow.Packet
	out := make([]openflow.Result, 1)
	var perArrival []float64
	for rep := 0; rep < r.pick(15, 2); rep++ {
		var busy time.Duration
		for lo := 0; lo < len(rec); lo += chunk {
			part := rec[lo:min(lo+chunk, len(rec))]
			for i, a := range part {
				p := a.pkt.ClonePooled()
				// Room for the records this execution pushes, so that the
				// timed part never regrows a stack the loop grows once.
				p.Labels = append(p.Labels, 0, 0)[:len(p.Labels)]
				in[i] = p
			}
			t0 := time.Now()
			for i, a := range part {
				f.net.Switch(a.sw).ExecBatch(xc, in[i:i+1], out)
				for _, em := range out[0].Emissions {
					em.Pkt.Release()
				}
				if !out[0].StoleInput {
					in[i].Release()
				}
			}
			busy += time.Since(t0)
		}
		perArrival = append(perArrival, float64(busy.Nanoseconds())/float64(len(rec)))
	}
	r.note("exec replay: %d of %d arrivals replayed in chunks of %d, %.1f ns each", len(rec), seen, chunk, median(perArrival))
	// Every arrival of the driven traffic costs one execution; scale the
	// sampled per-arrival cost to the hops those arrivals produced.
	return median(perArrival) * float64(seen) / float64(hops), nil
}
