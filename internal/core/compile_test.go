package core

import (
	"slices"
	"testing"

	"smartsouth/internal/controller"
	"smartsouth/internal/network"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// TestAllServiceProgramsCheckClean compiles every service and statically
// checks the emitted program: CheckProgram must pass (no Err findings)
// on the declarative IR itself, before any switch sees a rule.
func TestAllServiceProgramsCheckClean(t *testing.T) {
	g := topo.RandomConnected(10, 6, 3)
	net := network.New(g, network.Options{})
	c := controller.New(net)

	var programs []*Program
	collect := func(name string, p *Program, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: no program recorded", name)
		}
		programs = append(programs, p)
	}

	tr, err := InstallTraversal(c, g, 0)
	collect("traversal", tr.Prog, err)
	snap, err := InstallSnapshot(c, g, 1)
	collect("snapshot", snap.Prog, err)
	any, err := InstallAnycast(c, g, 2, map[uint32][]int{1: {3}})
	collect("anycast", any.Prog, err)
	prio, err := InstallPriocast(c, g, 3, map[uint32][]PrioMember{2: {{Node: 4, Prio: 5}}})
	collect("priocast", prio.Prog, err)
	cr, err := InstallCritical(c, g, 4)
	collect("critical", cr.Prog, err)
	bhc, err := InstallBlackholeCounter(c, g, 5)
	collect("blackhole-counter", bhc.Prog, err)
	bht, err := InstallBlackholeTTL(c, g, 7)
	collect("blackhole-ttl", bht.Prog, err)
	pl, err := InstallPktLoss(c, g, 8, nil)
	collect("pktloss", pl.Prog, err)
	cc, err := InstallChaincast(c, g, 9, [][]int{{2}, {7}})
	collect("chaincast", cc.Prog, err)
	split, err := InstallSnapshotSplit(c, g, 11, 8)
	collect("snapsplit", split.Prog, err)

	for _, p := range programs {
		issues := verify.CheckProgram(p, verify.Options{SkipShadowing: true})
		for _, iss := range issues {
			if iss.Severity == verify.Err {
				t.Errorf("program %q: %s", p.Service, iss)
			}
		}
		if p.FlowCount() == 0 {
			t.Errorf("program %q is empty", p.Service)
		}
	}

	// The controller retained exactly these programs, in install order.
	got := c.Programs()
	if len(got) != len(programs) {
		t.Fatalf("controller retains %d programs, want %d", len(got), len(programs))
	}
	for i := range got {
		if got[i].Service != programs[i].Service {
			t.Errorf("retained[%d] = %q, want %q", i, got[i].Service, programs[i].Service)
		}
	}
}

// TestCompileAllocsScaleQuadratically: a hub of degree Δ has (Δ+1)² advance
// groups holding O(Δ³) buckets, but its compile may only allocate O(Δ²)
// times — per rule and per distinct list, never per bucket. Doubling the
// degree must therefore multiply allocations by at most about 4; an
// allocation per bucket reads 6 at these degrees (and tends to 8).
func TestCompileAllocsScaleQuadratically(t *testing.T) {
	allocs := func(degree int) float64 {
		g := topo.Star(degree + 1)
		l := NewLayout(g)
		return testing.AllocsPerRun(5, func() {
			if err := snapshotOnController(g, l).Compile(newProgram("snapshot", 0, g, l)); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(16), allocs(32)
	if ratio := hi / lo; ratio > 5 {
		t.Errorf("compile allocates %.0f times at degree 16 and %.0f at degree 32: ratio %.1f, want <= 5", lo, hi, ratio)
	}
}

// TestGroupBytesCountEveryBucket: the modelled hardware footprint is per
// bucket — a switch stores each bucket's actions — however few distinct
// lists the compiled program keeps in memory.
func TestGroupBytesCountEveryBucket(t *testing.T) {
	const d = 8
	g := topo.Star(d + 1)
	l := NewLayout(g)
	p := newProgram("snapshot", 0, g, l)
	if err := snapshotOnController(g, l).Compile(p); err != nil {
		t.Fatal(err)
	}
	hub := p.At(0)

	// Every forwarding bucket carries three actions (push OUT or UP, set
	// cur, output), the root fallback one (cur := 0).
	want, buckets := 0, 0
	for s := 1; s <= d+1; s++ {
		for par := 0; par <= d; par++ {
			forward := max(0, d-s+1)
			if par >= s {
				forward--
			}
			want += 16 + forward*(16+3*8)
			if par >= 1 {
				want += 16 + 3*8
			} else {
				want += 16 + 1*8
			}
			buckets += forward + 1
		}
	}
	if got := hub.GroupBytes(); got != want {
		t.Errorf("hub GroupBytes = %d, want %d (every bucket's actions counted)", got, want)
	}
	sw := openflow.NewSwitch(0, d)
	hub.Materialize(sw)
	if got := sw.ConfigBytes(); got != hub.GroupBytes()+hub.FlowBytes() {
		t.Errorf("materialized hub ConfigBytes = %d, program says %d", got, hub.GroupBytes()+hub.FlowBytes())
	}

	distinct := map[*openflow.Action]bool{}
	for _, grp := range hub.Groups {
		for _, b := range grp.Buckets {
			distinct[&b.Actions[0]] = true
		}
	}
	// One list per out-port, one per parent return, one root fallback.
	if len(distinct) != 2*d+1 {
		t.Errorf("hub's %d buckets point at %d distinct action lists, want %d", buckets, len(distinct), 2*d+1)
	}
}

// TestAdvanceGroupsShareBucketSuffixes: group (s, par) probes the ports
// group (s-1, par) probes after its first, so it is stored as the tail of
// that group's bucket array. A hub of degree Δ then holds one array per
// parent value — at most (Δ+1)² bucket structs, not the O(Δ³) its groups
// list — while every group still lists, and is billed for, all of its own
// buckets.
func TestAdvanceGroupsShareBucketSuffixes(t *testing.T) {
	const d = 16
	g := topo.Star(d + 1)
	l := NewLayout(g)
	p := newProgram("snapshot", 0, g, l)
	tmpl := snapshotOnController(g, l)
	if err := tmpl.Compile(p); err != nil {
		t.Fatal(err)
	}
	stored := map[*openflow.Bucket]bool{}
	listed := 0
	byID := map[uint32]*openflow.GroupEntry{}
	for _, grp := range p.At(0).Groups {
		byID[grp.ID] = grp
		for i := range grp.Buckets {
			stored[&grp.Buckets[i]] = true
		}
		listed += len(grp.Buckets)
	}
	if limit := (d+1)*(d+1) + d + 1; len(stored) > limit {
		t.Errorf("hub stores %d bucket structs for the %d its groups list, want <= %d", len(stored), listed, limit)
	}
	for s := 1; s <= d+1; s++ {
		for par := 0; par <= d; par++ {
			grp := byID[tmpl.AdvGroup(0, s, par)]
			var watch []int
			for k := s; k <= d; k++ {
				if k != par {
					watch = append(watch, k)
				}
			}
			watch = append(watch, openflow.WatchNone)
			// Three actions per forwarding bucket (push OUT or UP, set cur,
			// output), one in the root fallback (cur := 0).
			bytes := 16 + len(watch)*(16+3*8)
			if par == 0 {
				bytes -= 2 * 8
			}
			var got []int
			for _, b := range grp.Buckets {
				got = append(got, b.WatchPort)
			}
			if !slices.Equal(got, watch) || grp.Bytes() != bytes {
				t.Fatalf("group (s=%d, par=%d): watch ports %v in %d bytes, want %v in %d", s, par, got, grp.Bytes(), watch, bytes)
			}
		}
	}
}

// BenchmarkCompile measures the OF13 template compile on the shapes the
// repository's benchmark deploys: a large regular topology (one small
// degree class), the 10k-switch ISP (a long tail of high-degree hubs, where
// a per-bucket allocation shows as O(Δ³)) and a fat-tree (every node at
// degree 16). allocs/op is gated next to ns/op (cmd/benchguard).
func BenchmarkCompile(b *testing.B) {
	isp, err := topo.ISP(500, 20, 1)
	if err != nil {
		b.Fatal(err)
	}
	fattree, err := topo.FatTree(16)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		g    *topo.Graph
		tmpl func(g *topo.Graph, l *Layout) *Template
	}{
		{"traversal/ring400", topo.Ring(400), func(g *topo.Graph, l *Layout) *Template {
			t0, tFin, gb := Slot(0)
			return &Template{
				G: g, L: l, Eth: EthTraversal, T0: t0, TFin: tFin, GroupBase: gb,
				Hooks: Hooks{Finish: finishToController},
			}
		}},
		{"snapshot/isp", isp, snapshotOnController},
		{"snapshot/fattree16", fattree, snapshotOnController},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			l := NewLayout(arm.g)
			for i := 0; i < b.N; i++ {
				p := newProgram("bench", 0, arm.g, l)
				if err := arm.tmpl(arm.g, l).Compile(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func snapshotOnController(g *topo.Graph, l *Layout) *Template {
	return snapshotTemplate(g, l, 0, openflow.PortController)
}
