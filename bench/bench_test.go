package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/core"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 0.90, true}, {199, 0.90, true}, {200, 0.95, true},
		{999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndQuartileSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeWithNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 35, End: 50},  // inside a ∪ b
		{ID: 4, Parent: 1, Name: "a1", Start: 12, End: 20}, // nested in a
		{ID: 5, Parent: 0, Name: "d", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 8, 30, 15, 8, 30}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	ls := buildLedgers(spans)
	if len(ls) != 1 || ls[0].n["a1"] != 1 || ls[0].dur["b"] != 30 || ls[0].self["root"] != 40 {
		t.Fatalf("ledger = %+v", ls)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var nilTr *tracer
	nilTr.cycle("x", true)
	nilTr.end(nilTr.begin("a")) // must not panic
	tr := newTracer()
	tr.cycle("w/0", false)
	tr.timed("a", func() {})
	tr.cycle("w/1", true)
	outer := tr.begin("outer")
	tr.timed("inner", func() {})
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Trace != "w/1" {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

// small is a 20-switch plan with its facade deployment.
func small(t *testing.T, svcs []string) *fabric {
	t.Helper()
	p := newPlan(topo.RandomConnected(20, 10, 7), 7)
	f, err := deployFacade(nil, p, svcs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestOraclesRejectCorruptedAnswersAndCountThem(t *testing.T) {
	f := small(t, monitorServices)
	g := f.p.g

	// A true answer passes; each corruption of it is rejected.
	f.snap.Trigger(0, f.soon())
	if err := f.run(); err != nil {
		t.Fatal(err)
	}
	res, err := f.snap.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSnapshot(g, res, sweepMsgs(g)); err != nil {
		t.Fatalf("true snapshot rejected: %v", err)
	}
	truncated := &core.Result{Nodes: res.Nodes, Edges: res.Edges[:len(res.Edges)-1]}
	if checkSnapshot(g, truncated, sweepMsgs(g)) == nil {
		t.Error("snapshot missing an edge accepted")
	}
	if checkSnapshot(g, res, sweepMsgs(g)+1) == nil {
		t.Error("snapshot with a wrong message count accepted")
	}
	if checkSnapshot(g, nil, 0) == nil {
		t.Error("missing snapshot accepted")
	}

	members := f.p.anyGroups[1]
	outsider := 0
	for slices.Contains(members, outsider) {
		outsider++
	}
	if checkDelivered("anycast", members[0], members) != nil || checkDelivered("anycast", outsider, members) == nil ||
		checkDelivered("anycast", -1, members) == nil {
		t.Error("anycast delivery oracle")
	}
	for node := 0; node < g.NumNodes(); node++ {
		if checkCritical(node, f.p.cuts[node], true, f.p.cuts) != nil || checkCritical(node, !f.p.cuts[node], true, f.p.cuts) == nil {
			t.Errorf("critical oracle at node %d", node)
		}
	}
	if checkCritical(0, false, false, f.p.cuts) == nil {
		t.Error("missing verdict accepted")
	}
	if checkHealthy(false, true) != nil || checkHealthy(true, true) == nil || checkHealthy(false, false) == nil {
		t.Error("healthy-fabric oracle")
	}
	if checkBurst(g, 4, 100, 100) != nil || checkBurst(g, 4, 101, 100) == nil || checkBurst(g, 4, 4*4*g.NumEdges()+1, 0) == nil {
		t.Error("burst oracle")
	}

	// Through an op: the fabric answers correctly, the oracle is lied to (the
	// plan's articulation points flipped, the priocast winner replaced), and
	// the failures surface as the run's failed count and an incorrect result.
	r := &run{vals: map[string]float64{}}
	var ops opTimer
	ops.do(func() (int, error) { return f.criticalOp(nil, 3) })
	f.p.cuts[3] = !f.p.cuts[3]
	ops.do(func() (int, error) { return f.criticalOp(nil, 3) })
	f.p.prioBest[1] = []int{outsider}
	ops.do(func() (int, error) { return f.priocastOp(nil, 0, 1) })
	r.book(&ops)
	if r.attempted != 3 || r.failed != 2 || r.firstErr == nil {
		t.Fatalf("attempted %d failed %d err %v, want 3, 2, non-nil", r.attempted, r.failed, r.firstErr)
	}
}

// recorder is a control plane that only notes which methods were called.
type recorder struct{ called map[string]bool }

func (r *recorder) note(m string)                                      { r.called[m] = true }
func (r *recorder) InstallProgram(*openflow.Program)                   { r.note("InstallProgram") }
func (r *recorder) ResetState(...int)                                  { r.note("ResetState") }
func (r *recorder) ReadState(int, int, uint64) (uint64, bool)          { r.note("ReadState"); return 0, false }
func (r *recorder) PacketOut(int, int, *openflow.Packet, network.Time) { r.note("PacketOut") }
func (r *recorder) InjectHost(int, *openflow.Packet, network.Time)     { r.note("InjectHost") }
func (r *recorder) Inbox() []controller.PacketIn                       { r.note("Inbox"); return nil }
func (r *recorder) ClearInbox()                                        { r.note("ClearInbox") }
func (r *recorder) RunNetwork() (int, error)                           { r.note("RunNetwork"); return 0, nil }
func (r *recorder) Now() network.Time                                  { r.note("Now"); return 0 }
func (r *recorder) PortLive(int, int) bool                             { r.note("PortLive"); return false }
func (r *recorder) GroupCounter(int, uint32) int                       { r.note("GroupCounter"); return 0 }
func (r *recorder) Programs() []*openflow.Program                      { r.note("Programs"); return nil }
func (r *recorder) DropPrograms(int)                                   { r.note("DropPrograms") }

func TestTimedPlaneForwardsEveryMethod(t *testing.T) {
	rec := &recorder{called: map[string]bool{}}
	tr := newTracer()
	tr.cycle("t", true)
	var cp core.ControlPlane = &timedPlane{ControlPlane: rec, tr: tr}
	cp.InstallProgram(openflow.NewProgram("x", 0))
	cp.ResetState(1)
	cp.ReadState(0, 0, 0)
	cp.PacketOut(0, 0, nil, 0)
	cp.InjectHost(0, nil, 0)
	cp.Inbox()
	cp.ClearInbox()
	if _, err := cp.RunNetwork(); err != nil {
		t.Fatal(err)
	}
	cp.Now()
	cp.PortLive(0, 0)
	cp.GroupCounter(0, 0)
	cp.Programs()
	cp.DropPrograms(0)
	iface := reflect.TypeOf((*core.ControlPlane)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		if name := iface.Method(i).Name; !rec.called[name] {
			t.Errorf("timedPlane did not forward %s (or this test does not call it)", name)
		}
	}
	if cp.(*timedPlane).calls != 1 || len(tr.spans) != 1 || tr.spans[0].Name != "controlplane.InstallProgram" {
		t.Errorf("InstallProgram: calls %d, spans %+v", cp.(*timedPlane).calls, tr.spans)
	}
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestContractMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code has %d", c.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || !reflect.DeepEqual(c.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", c.Command, c.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: contract %q, code %q (or their reasons differ)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: reason is %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the contract, %d in code", kind, len(got), len(want))
		}
		for i := range got {
			name(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s %d: contract %+v, code %+v", kind, i, got[i], want[i])
			}
			if !unitRE.MatchString(got[i].Unit) || (got[i].Better != "lower" && got[i].Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, got[i].Name, got[i].Unit, got[i].Better)
			}
			if bounded != (got[i].Bound > 0) || got[i].Bound > 0.25 {
				t.Errorf("%s %s: bound %v", kind, got[i].Name, got[i].Bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

// TestQuickWorkloads runs every workload at the -quick size in both modes:
// all answers pass their oracles, every metric of the mode is reported, the
// traced run reproduces the untraced run's simulated counts, and another
// seed changes the inputs and still passes.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "burst-fattree-2shard" && runtime.GOMAXPROCS(0) < burstShards {
				if _, _, err := runWorkload(config{workload: w.Name, quick: true, seed: 1}); err == nil {
					t.Fatal("burst workload ran with fewer procs than shards")
				}
				t.Skip("needs GOMAXPROCS >= 2")
			}
			results := map[int]result{}
			for _, mode := range []int{0, 1} {
				r, res, err := runWorkload(config{workload: w.Name, seed: 1, seconds: 0.1, trace: mode, quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace %d: %+v, first failure: %v", mode, res, r.firstErr)
				}
				defs := endToEnd
				if mode == 1 {
					defs = perLayer
					if len(r.tr.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace %d: %d metrics, want %d", mode, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace %d: metric %s = %+v (present %v)", mode, d.Name, m, ok)
					}
					if mode == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				results[mode] = res
			}
			for _, m := range []string{"rule_entries", "inband_msgs"} {
				if u, tr := results[0].Metrics[m].Value, results[1].Metrics["harness."+m].Value; u != tr {
					t.Errorf("%s: untraced %v, traced %v", m, u, tr)
				}
			}
			_, other, err := runWorkload(config{workload: w.Name, seed: 2, seconds: 0.1, trace: 0, quick: true})
			if err != nil || !other.Correct {
				t.Fatalf("seed 2: %+v, %v", other, err)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a := newPlan(topo.RandomConnected(20, 10, 1), 1)
	b := newPlan(topo.RandomConnected(20, 10, 2), 2)
	if reflect.DeepEqual(a.g.Edges(), b.g.Edges()) || reflect.DeepEqual(a.schedule(4), b.schedule(4)) {
		t.Error("seeds 1 and 2 generate the same inputs")
	}
	if !reflect.DeepEqual(a.schedule(4), newPlan(topo.RandomConnected(20, 10, 1), 1).schedule(4)) {
		t.Error("one seed, two schedules")
	}
}
