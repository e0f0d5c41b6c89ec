package analysis_test

import (
	"strings"
	"testing"

	"smartsouth/internal/analysis"
	"smartsouth/internal/openflow"
	"smartsouth/internal/topo"
	"smartsouth/internal/verify"
)

// ethA/ethB are fixture EtherTypes outside the real services' range.
const (
	ethA = 0x8901
	ethB = 0x8902
)

func findingsOf(fs []analysis.Finding, kind analysis.Kind) []analysis.Finding {
	var out []analysis.Finding
	for _, f := range fs {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// TestCrossProgramPriorityConflict builds two programs that install
// overlapping matches at the same priority in the same table of the same
// switch — the behaviour then depends on install order, which the
// analyzer must flag as an error with both services named.
func TestCrossProgramPriorityConflict(t *testing.T) {
	g := topo.Line(2)

	mk := func(name string, slot int, cookie string) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		p.Slots = 1
		sp := p.Ensure(0, g.Degree(0))
		_ = sp
		p.AddFlow(0, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Cookie:  cookie,
		})
		return p
	}
	p1 := mk("svc-one", 0, "one/dispatch")
	p2 := mk("svc-two", 1, "two/dispatch")

	fs := analysis.CheckDeployment([]*openflow.Program{p1, p2}, g, analysis.Options{})
	conflicts := findingsOf(fs, analysis.KindOverlap)
	if len(conflicts) != 1 {
		t.Fatalf("want exactly 1 overlap conflict, got %d: %v", len(conflicts), fs)
	}
	c := conflicts[0]
	if c.Severity != verify.Err {
		t.Errorf("overlap severity = %v, want Err", c.Severity)
	}
	if c.Switch != 0 || c.Table != 0 {
		t.Errorf("overlap provenance sw=%d t=%d, want sw=0 t=0", c.Switch, c.Table)
	}
	if c.Service != "svc-two" || c.Cookie != "two/dispatch" {
		t.Errorf("overlap blames %q/%q, want the later program svc-two/two/dispatch", c.Service, c.Cookie)
	}
	if !strings.Contains(c.Detail, "svc-one") {
		t.Errorf("overlap detail does not name the other service: %s", c.Detail)
	}
}

// TestSlotAndGroupAndCookieCollisions drives the remaining composition
// checks: two programs claiming the same slot, the same group ID on one
// switch, and the same cookie prefix.
func TestSlotAndGroupAndCookieCollisions(t *testing.T) {
	g := topo.Line(2)

	p1 := openflow.NewProgram("first", 0)
	sp := p1.Ensure(0, g.Degree(0))
	_ = sp
	p1.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	p1.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie: "svc0001/dispatch"})

	p2 := openflow.NewProgram("second", 0) // same slot!
	p2.Ensure(0, g.Degree(0))
	p2.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect, // same group ID!
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	p2.AddFlow(0, 0, &openflow.FlowEntry{Priority: 90, Match: openflow.MatchEth(ethB),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie: "svc0001/probe"}) // same cookie prefix!

	fs := analysis.CheckDeployment([]*openflow.Program{p1, p2}, g, analysis.Options{})

	if got := findingsOf(fs, analysis.KindSlotCollision); len(got) != 1 {
		t.Errorf("slot collisions = %v, want exactly 1", got)
	} else if got[0].Severity != verify.Err || got[0].Service != "second" {
		t.Errorf("slot collision = %+v, want Err blaming 'second'", got[0])
	}
	if got := findingsOf(fs, analysis.KindGroupCollision); len(got) != 1 {
		t.Errorf("group collisions = %v, want exactly 1", got)
	} else if got[0].Switch != 0 || !strings.Contains(got[0].Detail, "first") {
		t.Errorf("group collision = %+v, want sw0 naming 'first'", got[0])
	}
	if got := findingsOf(fs, analysis.KindCookieCollision); len(got) != 1 {
		t.Errorf("cookie collisions = %v, want exactly 1", got)
	} else if !strings.Contains(got[0].Detail, "svc0001") {
		t.Errorf("cookie collision = %+v, want prefix svc0001 named", got[0])
	}
}

// TestGroupCollisionModelsLastWriter pins which of two colliding groups
// the walk reasons about: the switch keeps the later program's group 7
// (Switch.AddGroups replaces by ID), so the blackhole behind its bucket —
// an output to a port with no link — must be found, while the earlier
// program's bucket, which reaches a neighbour that delivers, must not
// hide it.
func TestGroupCollisionModelsLastWriter(t *testing.T) {
	g := topo.Line(2)
	a := openflow.NewProgram("first", 1)
	a.Ensure(0, 2) // port 2 exists on the switch but has no link
	a.Ensure(1, g.Degree(1))
	a.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 1}}}}})
	a.AddFlow(0, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Group{ID: 7}}, Cookie: "first/fwd"})
	a.AddFlow(1, 0, &openflow.FlowEntry{Priority: 100, Match: openflow.MatchEth(ethA),
		Goto: openflow.NoGoto, Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie: "first/deliver"})

	b := openflow.NewProgram("second", 2)
	b.Ensure(0, 2)
	b.AddGroup(0, &openflow.GroupEntry{ID: 7, Type: openflow.GroupIndirect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output{Port: 2}}}}})

	fs := analysis.CheckDeployment([]*openflow.Program{a, b}, g, analysis.Options{})
	if got := findingsOf(fs, analysis.KindGroupCollision); len(got) != 1 || got[0].Service != "second" {
		t.Errorf("group collisions = %v, want one blaming 'second'", got)
	}
	var bh []analysis.Finding
	for _, f := range findingsOf(fs, analysis.KindBlackhole) {
		if f.Switch == 0 && strings.Contains(f.Detail, "port 2, which has no link") {
			bh = append(bh, f)
		}
	}
	if len(bh) != 1 {
		t.Fatalf("want the second program's group-7 blackhole on sw0 port 2, got %v", fs)
	}
}

// TestForwardingLoopOnRing builds a tag encoding that loops on Ring(4):
// every switch forwards the EtherType out port 1 unconditionally, so the
// packet ping-pongs between neighbours forever with an unchanged state.
func TestForwardingLoopOnRing(t *testing.T) {
	g := topo.Ring(4)
	p := openflow.NewProgram("loopy", 0)
	for sw := 0; sw < g.NumNodes(); sw++ {
		p.Ensure(sw, g.Degree(sw))
		p.AddFlow(sw, 0, &openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Cookie:  "loopy/fwd",
		})
	}

	fs := analysis.CheckDeployment([]*openflow.Program{p}, g, analysis.Options{})
	loops := findingsOf(fs, analysis.KindLoop)
	if len(loops) == 0 {
		t.Fatalf("no loop detected: %v", fs)
	}
	l := loops[0]
	if l.Severity != verify.Err {
		t.Errorf("loop severity = %v, want Err", l.Severity)
	}
	if l.Service != "loopy" || l.Slot != 0 {
		t.Errorf("loop provenance = %q slot %d, want loopy slot 0", l.Service, l.Slot)
	}
	if !strings.Contains(l.Detail, "->") {
		t.Errorf("loop detail has no cycle path: %s", l.Detail)
	}
	// No blackholes: the packet never dies, it just never stops.
	if bh := findingsOf(fs, analysis.KindBlackhole); len(bh) != 0 {
		t.Errorf("unexpected blackholes: %v", bh)
	}
}

// starBlackholeFixture builds the seeded-defect star broadcast: the
// center forwards to every leaf, but no leaf has a rule for the
// EtherType, so every forwarded packet is silently dropped.
func starBlackholeFixture(g *topo.Graph) *openflow.Program {
	p := openflow.NewProgram("bcast", 0)
	p.Ensure(0, g.Degree(0))
	var outs []openflow.Action
	for port := 1; port <= g.Degree(0); port++ {
		outs = append(outs, openflow.Output{Port: port})
	}
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethB), Goto: openflow.NoGoto,
		Actions: outs, Cookie: "bcast/fanout",
	})
	// The leaves get NO rules — the seeded defect.
	return p
}

// TestBlackholeOnStar asserts the missing-leaf-rule star broadcast is
// reported as one table-0 blackhole per leaf.
func TestBlackholeOnStar(t *testing.T) {
	g := topo.Star(4) // center 0, leaves 1..3
	p := starBlackholeFixture(g)

	fs := analysis.CheckDeployment([]*openflow.Program{p}, g, analysis.Options{})
	bhs := findingsOf(fs, analysis.KindBlackhole)
	if len(bhs) != 3 {
		t.Fatalf("want 3 blackholes (one per leaf), got %d: %v", len(bhs), fs)
	}
	leaves := map[int]bool{}
	for _, f := range bhs {
		if f.Severity != verify.Err {
			t.Errorf("blackhole severity = %v, want Err", f.Severity)
		}
		if f.Table != 0 {
			t.Errorf("blackhole table = %d, want 0 (table-0 miss)", f.Table)
		}
		if f.Service != "bcast" {
			t.Errorf("blackhole provenance = %q, want bcast", f.Service)
		}
		leaves[f.Switch] = true
	}
	for leaf := 1; leaf <= 3; leaf++ {
		if !leaves[leaf] {
			t.Errorf("leaf %d not reported", leaf)
		}
	}
	if loops := findingsOf(fs, analysis.KindLoop); len(loops) != 0 {
		t.Errorf("unexpected loops: %v", loops)
	}
}

// TestMidServiceBlackhole seeds the other blackhole class: the dispatch
// rule sends the packet into a slot table where no rule matches it.
func TestMidServiceBlackhole(t *testing.T) {
	g := topo.Line(2)
	f := openflow.Field{Name: "state", Off: 0, Bits: 4}
	p := openflow.NewProgram("halfpipe", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethA), Goto: 1, Cookie: "halfpipe/dispatch",
	})
	// Table 1 only handles state=5; the injected zero-tag packet misses.
	p.AddFlow(0, 1, &openflow.FlowEntry{
		Priority: 10, Match: openflow.MatchEth(ethA).WithField(f, 5), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie:  "halfpipe/stage",
	})

	fs := analysis.CheckDeployment([]*openflow.Program{p}, g, analysis.Options{})
	bhs := findingsOf(fs, analysis.KindBlackhole)
	if len(bhs) != 1 {
		t.Fatalf("want 1 mid-service blackhole, got %d: %v", len(bhs), fs)
	}
	if bhs[0].Table != 1 || bhs[0].Switch != 0 || bhs[0].Severity != verify.Err {
		t.Errorf("blackhole = %+v, want Err at sw0 table 1", bhs[0])
	}
}

// TestCleanDeploymentNoFindings: two well-behaved programs on disjoint
// EtherTypes, slots and cookie prefixes produce no findings at all.
func TestCleanDeploymentNoFindings(t *testing.T) {
	g := topo.Line(2)
	mk := func(name string, slot int, eth uint16) *openflow.Program {
		p := openflow.NewProgram(name, slot)
		for sw := 0; sw < g.NumNodes(); sw++ {
			p.Ensure(sw, g.Degree(sw))
			p.AddFlow(sw, 0, &openflow.FlowEntry{
				Priority: 100, Match: openflow.MatchEth(eth), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
				Cookie:  name + "/punt",
			})
		}
		return p
	}
	fs := analysis.CheckDeployment(
		[]*openflow.Program{mk("alpha", 0, ethA), mk("beta", 1, ethB)},
		g, analysis.Options{})
	if len(fs) != 0 {
		t.Fatalf("clean deployment produced findings: %v", fs)
	}
}

// TestDeadRuleReporting: an unreachable rule is reported only when the
// option is on, at Info severity.
func TestDeadRuleReporting(t *testing.T) {
	g := topo.Line(2)
	f := openflow.Field{Name: "state", Off: 0, Bits: 4}
	p := openflow.NewProgram("svc", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 100, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie:  "svc/live",
	})
	// state=9 never occurs: the injected tag is zero and nothing sets it.
	p.AddFlow(0, 0, &openflow.FlowEntry{
		Priority: 200, Match: openflow.MatchEth(ethA).WithField(f, 9), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie:  "svc/dead",
	})

	fs := analysis.CheckDeployment([]*openflow.Program{p}, g, analysis.Options{})
	if dead := findingsOf(fs, analysis.KindDeadRule); len(dead) != 0 {
		t.Errorf("dead rules reported without opt-in: %v", dead)
	}
	fs = analysis.CheckDeployment([]*openflow.Program{p}, g, analysis.Options{ReportDeadRules: true})
	dead := findingsOf(fs, analysis.KindDeadRule)
	if len(dead) != 1 || dead[0].Cookie != "svc/dead" || dead[0].Severity != verify.Info {
		t.Fatalf("dead rules = %v, want exactly svc/dead at Info", dead)
	}
}

// TestSlotDiscipline: with the slot geometry provided, a rule outside
// its program's table range is flagged.
func TestSlotDiscipline(t *testing.T) {
	g := topo.Line(2)
	p := openflow.NewProgram("stray", 0)
	p.Ensure(0, g.Degree(0))
	p.AddFlow(0, 99, &openflow.FlowEntry{ // table 99 belongs to slot 9
		Priority: 10, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
		Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
		Cookie:  "stray/rule",
	})
	opts := analysis.Options{
		SlotTables: func(slot int) (int, int) { return 1 + slot*10, 1 + (slot+1)*10 },
	}
	fs := analysis.CheckDeployment([]*openflow.Program{p}, g, opts)
	if got := findingsOf(fs, analysis.KindSlotViolation); len(got) != 1 || got[0].Table != 99 {
		t.Fatalf("slot violations = %v, want exactly 1 at table 99", got)
	}
}

// dfsFixture compiles by hand the minimal 2-node "traversal": inject at
// either node, bounce off the far node with a mark, finish at the root.
func dfsFixture(g *topo.Graph, withBounce bool) *openflow.Program {
	f := openflow.Field{Name: "mark", Off: 0, Bits: 1}
	p := openflow.NewProgram("minidfs", 0)
	for sw := 0; sw < g.NumNodes(); sw++ {
		p.Ensure(sw, g.Degree(sw))
		p.AddFlow(sw, 0, &openflow.FlowEntry{ // finish: marked packet returns
			Priority: 10, Match: openflow.MatchEth(ethA).WithField(f, 1), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: openflow.PortController}},
			Cookie:  "minidfs/finish",
		})
		if withBounce {
			p.AddFlow(sw, 0, &openflow.FlowEntry{ // bounce: mark and return
				Priority: 5, Match: openflow.MatchEth(ethA).WithInPort(1).WithField(f, 0), Goto: openflow.NoGoto,
				Actions: []openflow.Action{openflow.SetField{F: f, Value: 1}, openflow.Output{Port: openflow.PortInPort}},
				Cookie:  "minidfs/bounce",
			})
		}
		p.AddFlow(sw, 0, &openflow.FlowEntry{ // start: fresh trigger
			Priority: 1, Match: openflow.MatchEth(ethA), Goto: openflow.NoGoto,
			Actions: []openflow.Action{openflow.Output{Port: 1}},
			Cookie:  "minidfs/start",
		})
	}
	return p
}

func TestProveDFSHolds(t *testing.T) {
	g := topo.Line(2)
	fs := analysis.ProveDFS(dfsFixture(g, true), g, analysis.Options{})
	if len(fs) != 0 {
		t.Fatalf("invariant should hold on Line(2): %v", fs)
	}
}

func TestProveDFSViolation(t *testing.T) {
	g := topo.Line(2)
	fs := analysis.ProveDFS(dfsFixture(g, false), g, analysis.Options{})
	errs := analysis.Errors(fs)
	if len(errs) == 0 {
		t.Fatalf("missing bounce rule must break the invariant: %v", fs)
	}
	for _, f := range errs {
		if f.Kind != analysis.KindDFS {
			t.Errorf("finding kind = %s, want %s", f.Kind, analysis.KindDFS)
		}
	}
}
